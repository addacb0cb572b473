// Streaming trace-file tests: a campaign spooled to disk through
// TraceWriter reads back bit-for-bit — same spec echo, same event
// stream, same snapshot interleaving, and the exact fingerprint the
// in-memory CampaignTrace reports — while every byte-boundary
// truncation and every single-byte flip is rejected with a WireError
// (mirroring tests/wire_test.cpp for the grid frames). The replay
// differential at the bottom is the API contract of this PR: feeding
// detection::replay_trace a TraceReader instead of a CampaignTrace
// produces a byte-identical TrafficTrace.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/fileio.hpp"
#include "detection/replay.hpp"
#include "detection/telemetry.hpp"
#include "scenario/engine.hpp"
#include "scenario/trace_io.hpp"
#include "scenario/wire.hpp"

namespace onion::scenario::trace_io {
namespace {

// A small campaign with every event family in it: churn, a takedown
// wave, SOAP — the same shape tests/replay_test.cpp records, shrunk so
// the every-byte corruption sweeps stay fast.
ScenarioSpec small_spec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.initial_size = 40;
  spec.degree = 4;
  spec.horizon = 30 * kMinute;
  spec.churn.joins_per_hour = 40.0;
  spec.churn.leaves_per_hour = 40.0;
  AttackPhase takedown;
  takedown.kind = AttackKind::RandomTakedown;
  takedown.start = 5 * kMinute;
  takedown.stop = 15 * kMinute;
  takedown.takedowns_per_hour = 30.0;
  spec.attacks.push_back(takedown);
  AttackPhase soap;
  soap.kind = AttackKind::SoapInjection;
  soap.start = 15 * kMinute;
  soap.stop = 25 * kMinute;
  spec.attacks.push_back(soap);
  spec.metrics.period = 5 * kMinute;
  return spec;
}

// Records the campaign twice — the engine is byte-deterministic, so an
// in-memory CampaignTrace and an on-disk TraceWriter fed from separate
// runs of the same spec see identical streams.
CampaignTrace record_in_memory(const ScenarioSpec& spec) {
  CampaignTrace campaign;
  CampaignEngine(spec, campaign, &campaign).run();
  return campaign;
}

void record_to_file(const ScenarioSpec& spec, const std::string& path,
                    TraceWriterConfig config = {}) {
  TraceWriter writer(path, config);
  CampaignEngine(spec, writer, &writer).run();
  writer.finish();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

void write_file(const std::string& path, BytesView bytes) {
  // Unlink first: truncating a file in place on every iteration of the
  // every-byte loops makes ext4 flush on close, which turns those
  // loops' sub-second work into minutes of blocked I/O.
  std::remove(path.c_str());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  ASSERT_EQ(std::fclose(f), 0);
}

// ====================================================================
// Round trip
// ====================================================================

TEST(TraceIo, SpecCodecRoundTripsEveryField) {
  ScenarioSpec spec = small_spec(11);
  // Exercise the optional subtrees the small campaign leaves empty.
  spec.churn.session_leaves = true;
  spec.churn.session.model = SessionModel::Pareto;
  spec.churn.session.pareto_alpha = 1.25;
  AttackWave wave;
  wave.attack.kind = AttackKind::CentralityTakedown;
  wave.attack.rank = RankMetric::Degree;
  wave.duration = 10 * kMinute;
  wave.quiet_after = 5 * kMinute;
  spec.waves.start = 5 * kMinute;
  spec.waves.waves.push_back(wave);
  spec.defense.rate_limit_per_round = 7;
  spec.defense.pow_growth = 1.5;
  spec.metrics.degree_histogram = true;
  spec.metrics.diameter_sweeps = 3;

  const Bytes encoded = codec::encode(spec);
  ByteReader r{BytesView(encoded)};
  ScenarioSpec decoded;
  codec::decode_into(r, decoded);
  EXPECT_TRUE(r.done());
  // Bit-for-bit: the canonical encoding of the decoded spec matches.
  EXPECT_EQ(codec::encode(decoded), encoded);
}

TEST(TraceIo, WriteReadRoundTripIsBitForBit) {
  const ScenarioSpec spec = small_spec(21);
  const CampaignTrace campaign = record_in_memory(spec);
  const std::string path = temp_path("trace_roundtrip.otrace");
  // A small chunk bound so the file holds many chunk frames.
  record_to_file(spec, path, TraceWriterConfig{.chunk_records = 64});

  const TraceReader reader(path);
  EXPECT_EQ(codec::encode(reader.spec()), codec::encode(campaign.spec()));
  EXPECT_EQ(reader.initial_nodes(), campaign.initial_nodes());
  EXPECT_TRUE(reader.began());
  EXPECT_EQ(reader.event_count(), campaign.events().size());
  EXPECT_EQ(reader.snapshot_count(), campaign.snapshots().size());
  EXPECT_GT(reader.chunk_count(), 1u);

  std::vector<CampaignEvent> events;
  reader.for_each_event(
      [&](const CampaignEvent& e) { events.push_back(e); });
  EXPECT_EQ(events, campaign.events());

  // Snapshots round-trip canonically, in recorded order.
  std::vector<Bytes> streamed;
  reader.for_each_snapshot([&](const MetricsSnapshot& s) {
    streamed.push_back(codec::encode(s));
  });
  ASSERT_EQ(streamed.size(), campaign.snapshots().size());
  for (std::size_t i = 0; i < streamed.size(); ++i)
    EXPECT_EQ(streamed[i], codec::encode(campaign.snapshots()[i]));

  std::remove(path.c_str());
}

TEST(TraceIo, FingerprintMatchesInMemoryTrace) {
  const ScenarioSpec spec = small_spec(22);
  const CampaignTrace campaign = record_in_memory(spec);
  const std::string path = temp_path("trace_fingerprint.otrace");

  TraceWriter writer(path, TraceWriterConfig{.chunk_records = 100});
  CampaignEngine(spec, writer, &writer).run();
  writer.finish();
  EXPECT_EQ(writer.fingerprint(), campaign.fingerprint());

  const TraceReader reader(path);
  EXPECT_EQ(reader.fingerprint(), campaign.fingerprint());

  // The derived views agree too: lifetimes come off the shared
  // TraceSource pass, so the streamed source reproduces them exactly.
  const auto memory_lifetimes = campaign.lifetimes();
  const auto streamed_lifetimes = reader.lifetimes();
  ASSERT_EQ(streamed_lifetimes.size(), memory_lifetimes.size());
  for (std::size_t i = 0; i < memory_lifetimes.size(); ++i) {
    EXPECT_EQ(streamed_lifetimes[i].node, memory_lifetimes[i].node);
    EXPECT_EQ(streamed_lifetimes[i].birth, memory_lifetimes[i].birth);
    EXPECT_EQ(streamed_lifetimes[i].death, memory_lifetimes[i].death);
  }

  std::remove(path.c_str());
}

TEST(TraceIo, ChunkBoundDoesNotChangeTheBytesRead) {
  // Different chunk_records values produce different framing but the
  // same records and the same fingerprint.
  const ScenarioSpec spec = small_spec(23);
  const std::string coarse = temp_path("trace_coarse.otrace");
  const std::string fine = temp_path("trace_fine.otrace");
  record_to_file(spec, coarse, TraceWriterConfig{.chunk_records = 4096});
  record_to_file(spec, fine, TraceWriterConfig{.chunk_records = 7});

  const TraceReader a(coarse), b(fine);
  EXPECT_GT(b.chunk_count(), a.chunk_count());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.event_count(), b.event_count());
  EXPECT_EQ(a.snapshot_count(), b.snapshot_count());

  std::remove(coarse.c_str());
  std::remove(fine.c_str());
}

// ====================================================================
// Crash / corruption discipline
// ====================================================================

TEST(TraceIo, UnfinishedWriterPublishesNothing) {
  const std::string path = temp_path("trace_unfinished.otrace");
  {
    TraceWriter writer(path);
    writer.on_begin(small_spec(31), {1, 2, 3});
    writer.on_event({kMinute, TraceEventKind::Join, 4, 0});
    // Destroyed without finish(): the temp file is removed and the
    // final name never appears — a crashed recorder leaves no trace.
  }
  EXPECT_THROW(read_file_bytes(path), std::runtime_error);
  EXPECT_THROW(TraceReader{path}, wire::WireError);
}

TEST(TraceIo, TruncationAtEveryByteBoundaryIsRejected) {
  const ScenarioSpec spec = small_spec(32);
  const std::string path = temp_path("trace_truncate.otrace");
  record_to_file(spec, path, TraceWriterConfig{.chunk_records = 32});
  const Bytes full = read_file_bytes(path);
  ASSERT_GT(full.size(), kFooterFrameBytes);

  const std::string prefix_path = temp_path("trace_truncate_prefix.otrace");
  for (std::size_t len = 0; len < full.size(); ++len) {
    write_file(prefix_path, BytesView(full.data(), len));
    // Every truncation displaces the fixed-size footer, so the reader
    // fails at open — before streaming a single chunk.
    EXPECT_THROW(TraceReader{prefix_path}, wire::WireError)
        << "prefix of " << len << " bytes opened";
  }

  std::remove(path.c_str());
  std::remove(prefix_path.c_str());
}

TEST(TraceIo, EverySingleByteCorruptionIsRejected) {
  // Any flipped bit lands in a frame magic/version/length, a payload
  // covered by a chunk digest, or the digest itself — opening plus one
  // full streaming pass must throw somewhere.
  const ScenarioSpec spec = small_spec(33);
  const std::string path = temp_path("trace_flip.otrace");
  record_to_file(spec, path, TraceWriterConfig{.chunk_records = 32});
  const Bytes full = read_file_bytes(path);

  const std::string flip_path = temp_path("trace_flip_one.otrace");
  for (std::size_t i = 0; i < full.size(); ++i) {
    Bytes corrupt = full;
    corrupt[i] ^= 0x01;
    write_file(flip_path, BytesView(corrupt));
    EXPECT_THROW(
        {
          const TraceReader reader(flip_path);
          reader.for_each_event([](const CampaignEvent&) {});
        },
        wire::WireError)
        << "flip at byte " << i << " streamed";
  }

  std::remove(path.c_str());
  std::remove(flip_path.c_str());
}

// ====================================================================
// The TraceSource replay contract
// ====================================================================

TEST(TraceIo, StreamedReplayIsByteIdenticalToInMemoryReplay) {
  const ScenarioSpec spec = small_spec(41);
  const CampaignTrace campaign = record_in_memory(spec);
  const std::string path = temp_path("trace_replay.otrace");
  record_to_file(spec, path, TraceWriterConfig{.chunk_records = 128});
  const TraceReader reader(path);

  detection::ReplayConfig rc;
  rc.seed = 0x5ca1e;
  rc.benign_web = 40;
  rc.benign_tor = 10;
  rc.centralized_bots = 5;
  rc.dga_bots = 5;
  rc.fastflux_bots = 5;
  rc.p2p_bots = 8;
  rc.onion_mean_gap = kMinute;

  const detection::ReplayResult memory =
      detection::replay_trace(campaign, rc);
  const detection::ReplayResult streamed =
      detection::replay_trace(reader, rc);

  // The acceptance criterion: same TrafficTrace, byte for byte.
  EXPECT_EQ(detection::fingerprint(streamed.trace),
            detection::fingerprint(memory.trace));
  EXPECT_EQ(streamed.onion_bots, memory.onion_bots);
  EXPECT_EQ(streamed.trace.infected, memory.trace.infected);
  EXPECT_EQ(streamed.trace.hosts, memory.trace.hosts);

  std::remove(path.c_str());
}

}  // namespace
}  // namespace onion::scenario::trace_io

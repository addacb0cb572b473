// scenario/wire robustness: round-trip equality for every field,
// truncation at every byte boundary rejected, every single-byte
// corruption rejected, unknown versions and foreign magics rejected
// with clear errors — the "corrupt results are detected, never merged"
// contract the multi-process grid stands on. Plus the informational-
// fields contract: wall clocks and retry bookkeeping survive the wire
// but can never reach a fingerprint.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "detection/replay_grid.hpp"
#include "scenario/runner.hpp"
#include "scenario/trace_io.hpp"
#include "scenario/wire.hpp"

namespace onion::scenario {
namespace {

MetricsSnapshot sample_snapshot(std::uint64_t salt, bool with_waves) {
  MetricsSnapshot s;
  s.time = 30 * kMinute + salt;
  s.honest_alive = 900 + salt;
  s.sybil_alive = 11;
  s.honest_edges = 4200 + salt;
  s.components = 2;
  s.largest_component = 890;
  s.largest_fraction = 0.988;
  s.average_degree = 9.33 + static_cast<double>(salt);
  s.diameter = salt % 2 == 0 ? 7 : kNoDiameter;
  s.degree_histogram = {0, 1, 5, 40, 200};
  s.joins = 120 + salt;
  s.leaves = 100;
  s.takedowns = 25;
  s.repair_edges = 75;
  s.prune_edges = 3;
  s.refill_edges = 18;
  s.repair_messages = 5000;
  s.soap_clones = 4;
  s.soap_contained = 2;
  if (with_waves) s.wave_takedowns = {10, 0, 15};
  return s;
}

CellResult sample_cell(std::uint64_t seed) {
  CellResult cell;
  cell.label = "seed=" + std::to_string(seed);
  cell.seed = seed;
  cell.fingerprint = std::string(64, 'a');
  cell.series = {sample_snapshot(seed, false), sample_snapshot(seed + 1, true)};
  cell.counters.joins = 12 + seed;
  cell.counters.leaves = 9;
  cell.counters.takedowns = 4;
  cell.events_executed = 123456 + seed;
  cell.wall_seconds = 1.25;
  return cell;
}

GridReport sample_report() {
  GridReport report;
  report.cells = {sample_cell(7), sample_cell(8), CellResult{}};
  report.cells[2].label = "seed=9";  // a quarantined slot: no fingerprint
  report.cells[2].seed = 9;
  report.failed_cells = {
      {2, "seed=9", 9, 3, "worker exited with status 86"}};
  report.combined_fingerprint = std::string(64, 'b');
  report.threads_used = 4;
  report.wall_seconds = 2.5;
  report.retries = 5;
  report.resumed_cells = 1;
  return report;
}

void expect_cells_equal(const CellResult& a, const CellResult& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i)
    EXPECT_EQ(codec::encode(a.series[i]), codec::encode(b.series[i]));
  EXPECT_EQ(a.counters.joins, b.counters.joins);
  EXPECT_EQ(a.counters.leaves, b.counters.leaves);
  EXPECT_EQ(a.counters.takedowns, b.counters.takedowns);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.wall_seconds, b.wall_seconds);
}

TEST(Wire, SnapshotRoundTripsBitForBit) {
  for (const bool with_waves : {false, true}) {
    const MetricsSnapshot original = sample_snapshot(3, with_waves);
    const Bytes encoded = codec::encode(original);
    const MetricsSnapshot decoded = codec::decode<MetricsSnapshot>(encoded);
    EXPECT_EQ(codec::encode(decoded), encoded);
    EXPECT_EQ(decoded.degree_histogram, original.degree_histogram);
    EXPECT_EQ(decoded.wave_takedowns, original.wave_takedowns);
  }
}

TEST(Wire, CellResultRoundTripsEveryField) {
  const CellResult original = sample_cell(42);
  const CellResult decoded =
      wire::decode_frame<CellResult>(wire::encode_frame(original));
  expect_cells_equal(original, decoded);
}

TEST(Wire, GridReportRoundTripsEveryField) {
  const GridReport original = sample_report();
  const GridReport decoded =
      wire::decode_frame<GridReport>(wire::encode_frame(original));
  ASSERT_EQ(decoded.cells.size(), original.cells.size());
  for (std::size_t i = 0; i < original.cells.size(); ++i)
    expect_cells_equal(original.cells[i], decoded.cells[i]);
  ASSERT_EQ(decoded.failed_cells.size(), 1u);
  EXPECT_EQ(decoded.failed_cells[0].cell_index, 2u);
  EXPECT_EQ(decoded.failed_cells[0].label, "seed=9");
  EXPECT_EQ(decoded.failed_cells[0].seed, 9u);
  EXPECT_EQ(decoded.failed_cells[0].attempts, 3u);
  EXPECT_EQ(decoded.failed_cells[0].error, "worker exited with status 86");
  EXPECT_EQ(decoded.combined_fingerprint, original.combined_fingerprint);
  EXPECT_EQ(decoded.threads_used, original.threads_used);
  EXPECT_EQ(decoded.wall_seconds, original.wall_seconds);
  EXPECT_EQ(decoded.retries, original.retries);
  EXPECT_EQ(decoded.resumed_cells, original.resumed_cells);
}

TEST(Wire, TruncationAtEveryByteBoundaryIsRejected) {
  const Bytes framed = wire::encode_frame(sample_cell(1));
  for (std::size_t len = 0; len < framed.size(); ++len) {
    EXPECT_THROW(wire::decode_frame<CellResult>(BytesView(framed.data(), len)),
                 wire::WireError)
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(Wire, EverySingleByteCorruptionIsRejected) {
  // Any flipped bit must land in one of the frame's checks: magic,
  // version, length, or the trailing integrity digest.
  const Bytes framed = wire::encode_frame(sample_cell(2));
  for (std::size_t i = 0; i < framed.size(); ++i) {
    Bytes corrupt = framed;
    corrupt[i] ^= 0x01;
    EXPECT_THROW(wire::decode_frame<CellResult>(corrupt), wire::WireError)
        << "flip at byte " << i << " decoded";
  }
}

TEST(Wire, UnknownVersionIsRejectedWithAClearError) {
  Bytes framed = wire::encode_frame(sample_cell(3));
  framed[15] = 2;  // the version word's low byte (bytes 8..15, big-endian)
  try {
    wire::decode_frame<CellResult>(framed);
    FAIL() << "version-2 frame decoded";
  } catch (const wire::WireError& e) {
    EXPECT_NE(std::string(e.what()).find("version 2"), std::string::npos)
        << e.what();
  }
}

TEST(Wire, TrailingGarbageIsRejected) {
  Bytes framed = wire::encode_frame(sample_cell(5));
  framed.push_back(0x00);
  EXPECT_THROW(wire::decode_frame<CellResult>(framed), wire::WireError);
}

TEST(Wire, WallSecondsIsSerializedButNeverFingerprinted) {
  // The one-place contract (scenario/wire.hpp): informational fields
  // survive the wire bit-exactly but cannot move a fingerprint.
  CellResult fast = sample_cell(6);
  CellResult slow = sample_cell(6);
  fast.wall_seconds = 0.01;
  slow.wall_seconds = 1e6;
  EXPECT_NE(wire::encode_frame(fast), wire::encode_frame(slow));
  EXPECT_EQ(wire::decode_frame<CellResult>(wire::encode_frame(slow))
                .wall_seconds,
            1e6);
  EXPECT_EQ(combine_cell_fingerprints({fast}),
            combine_cell_fingerprints({slow}));
}

// --- replay-grid frames ----------------------------------------------

detection::ReplayGridPoint sample_point(std::uint64_t salt) {
  detection::ReplayGridPoint p;
  p.campaign = 1 + salt % 2;
  p.replay_seed = 40 + salt;
  p.detector = salt % 2 == 0 ? "flow-beacon" : "tor-flagger";
  p.params = "size_cv=0.25,gap_cv=0.45";
  p.flows = 90000 + salt;
  p.flagged = 120 + salt;
  p.true_positives = 100;
  p.false_positives = 20 + salt;
  p.tpr = 0.875;
  p.fpr = 0.0125 + static_cast<double>(salt);
  p.families = {{"onion", 100, 114}, {"benign_tor", 3 + salt, 40}};
  return p;
}

detection::ReplayGridCell sample_replay_cell(std::uint64_t cell_index) {
  detection::ReplayGridCell cell;
  cell.cell_index = cell_index;
  cell.campaign = cell_index / 2;
  cell.replay_seed = 1 + cell_index % 2;
  cell.points = {sample_point(cell_index), sample_point(cell_index + 1)};
  cell.wall_seconds = 0.75;
  return cell;
}

detection::ReplayGridReport sample_replay_report() {
  detection::ReplayGridReport report;
  report.points = {sample_point(0), sample_point(1), sample_point(2)};
  report.fingerprint = detection::combine_replay_points(report.points);
  report.failed_cells = {{3, "campaign=1,replay_seed=2", 2, 3,
                          "no result frame (worker died on signal 9)"}};
  report.threads_used = 4;
  report.wall_seconds = 1.5;
  report.retries = 2;
  report.resumed_cells = 1;
  return report;
}

TEST(Wire, ReplayPointRoundTripsBitForBit) {
  const detection::ReplayGridPoint original = sample_point(5);
  const Bytes encoded = codec::encode(original);
  const detection::ReplayGridPoint decoded =
      codec::decode<detection::ReplayGridPoint>(encoded);
  // Re-serialization equality is the strongest check: the fingerprint
  // hashes exactly these bytes, so a decoded frame recomputes it.
  EXPECT_EQ(codec::encode(decoded), encoded);
  ASSERT_EQ(decoded.families.size(), 2u);
  EXPECT_EQ(decoded.families[0].family, "onion");
  EXPECT_EQ(decoded.families[1].flagged, 8u);
}

TEST(Wire, ReplayCellRoundTripsEveryField) {
  const detection::ReplayGridCell original = sample_replay_cell(3);
  const detection::ReplayGridCell decoded =
      wire::decode_frame<detection::ReplayGridCell>(
          wire::encode_frame(original));
  EXPECT_EQ(decoded.cell_index, original.cell_index);
  EXPECT_EQ(decoded.campaign, original.campaign);
  EXPECT_EQ(decoded.replay_seed, original.replay_seed);
  ASSERT_EQ(decoded.points.size(), original.points.size());
  for (std::size_t i = 0; i < original.points.size(); ++i)
    EXPECT_EQ(codec::encode(decoded.points[i]),
              codec::encode(original.points[i]));
  EXPECT_EQ(decoded.wall_seconds, original.wall_seconds);
}

TEST(Wire, ReplayReportRoundTripsEveryField) {
  const detection::ReplayGridReport original = sample_replay_report();
  const detection::ReplayGridReport decoded =
      wire::decode_frame<detection::ReplayGridReport>(
          wire::encode_frame(original));
  ASSERT_EQ(decoded.points.size(), original.points.size());
  for (std::size_t i = 0; i < original.points.size(); ++i)
    EXPECT_EQ(codec::encode(decoded.points[i]),
              codec::encode(original.points[i]));
  EXPECT_EQ(decoded.fingerprint, original.fingerprint);
  EXPECT_EQ(detection::combine_replay_points(decoded.points),
            decoded.fingerprint);
  ASSERT_EQ(decoded.failed_cells.size(), 1u);
  EXPECT_EQ(decoded.failed_cells[0].cell_index, 3u);
  EXPECT_EQ(decoded.failed_cells[0].label, "campaign=1,replay_seed=2");
  EXPECT_EQ(decoded.failed_cells[0].seed, 2u);
  EXPECT_EQ(decoded.failed_cells[0].attempts, 3u);
  EXPECT_EQ(decoded.threads_used, original.threads_used);
  EXPECT_EQ(decoded.wall_seconds, original.wall_seconds);
  EXPECT_EQ(decoded.retries, original.retries);
  EXPECT_EQ(decoded.resumed_cells, original.resumed_cells);
}

TEST(Wire, ReplayFrameTruncationAtEveryByteBoundaryIsRejected) {
  const Bytes framed = wire::encode_frame(sample_replay_cell(0));
  for (std::size_t len = 0; len < framed.size(); ++len) {
    EXPECT_THROW(wire::decode_frame<detection::ReplayGridCell>(
                     BytesView(framed.data(), len)),
                 wire::WireError)
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(Wire, ReplayFrameEverySingleByteCorruptionIsRejected) {
  const Bytes framed = wire::encode_frame(sample_replay_cell(1));
  for (std::size_t i = 0; i < framed.size(); ++i) {
    Bytes corrupt = framed;
    corrupt[i] ^= 0x01;
    EXPECT_THROW(wire::decode_frame<detection::ReplayGridCell>(corrupt),
                 wire::WireError)
        << "flip at byte " << i << " decoded";
  }
}

// --- every frame kind against every other kind's decoder -------------

/// One frame kind: a valid frame of it and its decoder.
struct FrameKind {
  const char* name;
  Bytes frame;
  std::function<void(BytesView)> decode;
};

template <typename T>
FrameKind frame_kind(const char* name, const T& value) {
  return {name, wire::encode_frame(value),
          [](BytesView framed) { (void)wire::decode_frame<T>(framed); }};
}

std::vector<FrameKind> every_frame_kind() {
  Bytes chunk{trace_io::kEventTag};
  codec::encode_into(chunk, CampaignEvent{});
  return {frame_kind("cell", sample_cell(4)),
          frame_kind("grid report", sample_report()),
          frame_kind("replay cell", sample_replay_cell(2)),
          frame_kind("replay report", sample_replay_report()),
          frame_kind("trace header",
                     trace_io::TraceHeader{ScenarioSpec{}, {1, 2}}),
          frame_kind("trace footer", trace_io::TraceFooter{}),
          {"trace chunk", wire::frame(trace_io::kChunkMagic, chunk),
           [](BytesView framed) {
             (void)wire::unframe(trace_io::kChunkMagic, framed);
           }}};
}

bool is_replay_kind(const FrameKind& kind) {
  return std::string(kind.name).rfind("replay", 0) == 0;
}

/// Checks that `own` decodes as itself and that every other kind's
/// decoder rejects it. Each rejection must come from the magic check
/// itself: a frame whose payload merely fails to parse as a foreign
/// struct would hide two kinds sharing a tag.
void expect_only_own_decoder_accepts(const FrameKind& own,
                                     const std::vector<FrameKind>& kinds) {
  EXPECT_NO_THROW(own.decode(own.frame)) << own.name;
  for (const FrameKind& other : kinds) {
    if (&other == &own) continue;
    try {
      other.decode(own.frame);
      ADD_FAILURE() << own.name << " frame decoded as " << other.name;
    } catch (const wire::WireError& e) {
      EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
          << own.name << " as " << other.name << ": " << e.what();
    }
  }
}

// The two tests below split the one table by the frame under test: the
// grid and trace kinds here, the replay kinds in the next test.
TEST(Wire, ForeignMagicIsRejected) {
  const std::vector<FrameKind> kinds = every_frame_kind();
  for (const FrameKind& own : kinds) {
    if (!is_replay_kind(own)) expect_only_own_decoder_accepts(own, kinds);
  }
}

TEST(Wire, ReplayMagicsAreDistinctFromEveryOtherFrameKind) {
  const std::vector<FrameKind> kinds = every_frame_kind();
  int replay_kinds = 0;
  for (const FrameKind& own : kinds) {
    if (!is_replay_kind(own)) continue;
    ++replay_kinds;
    expect_only_own_decoder_accepts(own, kinds);
  }
  EXPECT_EQ(replay_kinds, 2);
}

TEST(Wire, ReplayInformationalFieldsNeverReachTheFingerprint) {
  detection::ReplayGridCell fast = sample_replay_cell(4);
  detection::ReplayGridCell slow = sample_replay_cell(4);
  fast.wall_seconds = 0.01;
  slow.wall_seconds = 1e6;
  EXPECT_NE(wire::encode_frame(fast), wire::encode_frame(slow));
  EXPECT_EQ(detection::combine_replay_points(fast.points),
            detection::combine_replay_points(slow.points));
}

TEST(Wire, CombinedFingerprintSkipsFailedSlots) {
  const CellResult completed = sample_cell(7);
  CellResult failed;  // quarantined: label but no fingerprint
  failed.label = "seed=9";
  failed.seed = 9;
  EXPECT_EQ(combine_cell_fingerprints({completed, failed}),
            combine_cell_fingerprints({completed}));
  EXPECT_NE(combine_cell_fingerprints({completed}),
            combine_cell_fingerprints({}));
}

}  // namespace
}  // namespace onion::scenario

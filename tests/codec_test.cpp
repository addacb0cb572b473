// Layout pins for every serialized struct: one fully populated instance
// of each is encoded through its public entry point and the SHA-256 of
// the bytes is compared against a constant. The goldens only hash what
// campaigns happen to produce; these pins also cover the corners no
// golden reaches (a GridReport with failed cells, a spec with waves, a
// non-default defense and session, a trace footer) and both
// omitted-when-empty variants. A pin moving means the wire layout moved:
// that is a wire-version bump, never a constant update.
//
// Below the pins: the codec's own guarantees. Forged counts fail as
// WireError before any allocation, every serialized enum accepts exactly
// its enumerators, and the member-count check that makes an unlisted
// field a compile error counts what it should.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/codec.hpp"
#include "common/fileio.hpp"
#include "core/messages.hpp"
#include "crypto/sha256.hpp"
#include "detection/replay_grid.hpp"
#include "detection/roc.hpp"
#include "detection/telemetry.hpp"
#include "scenario/trace_io.hpp"
#include "scenario/wire.hpp"

namespace onion::scenario {
namespace {

std::string sha(const Bytes& bytes) {
  const crypto::Sha256Digest d = crypto::Sha256::hash(bytes);
  return to_hex(BytesView(d.data(), d.size()));
}

MetricsSnapshot full_snapshot(bool with_waves) {
  MetricsSnapshot s;
  s.time = 90 * kMinute + 7;
  s.honest_alive = 9001;
  s.sybil_alive = 17;
  s.honest_edges = 45012;
  s.components = 3;
  s.largest_component = 8990;
  s.largest_fraction = 0.99878;
  s.average_degree = 9.75;
  s.diameter = 12;
  s.degree_histogram = {0, 2, 7, 30, 400, 8562, 0xfedcba98u};
  s.joins = 321;
  s.leaves = 123;
  s.takedowns = 77;
  s.repair_edges = 640;
  s.prune_edges = 41;
  s.refill_edges = 96;
  s.repair_messages = 70000;
  s.soap_clones = 5;
  s.soap_contained = 4;
  if (with_waves) s.wave_takedowns = {30, 0, 47};
  return s;
}

ScenarioSpec full_spec() {
  ScenarioSpec spec;
  spec.seed = 0x5eed5eed5eedull;
  spec.initial_size = 2500;
  spec.degree = 8;
  spec.horizon = 6 * kHour + 3;
  spec.churn.joins_per_hour = 12.5;
  spec.churn.leaves_per_hour = 9.25;
  spec.churn.heal_on_leave = false;
  spec.churn.session_leaves = true;
  spec.churn.session.model = SessionModel::LogNormal;
  spec.churn.session.mean_hours = 3.5;
  spec.churn.session.pareto_alpha = 1.25;
  spec.churn.session.lognormal_sigma = 0.75;
  spec.churn.session.min_hours = 0.1;
  spec.churn.session.max_hours = 48.0;

  AttackPhase random;
  random.kind = AttackKind::RandomTakedown;
  random.start = 10 * kMinute;
  random.stop = 70 * kMinute;
  random.takedowns_per_hour = 120.0;
  random.heal = false;
  AttackPhase adaptive;
  adaptive.kind = AttackKind::AdaptiveTakedown;
  adaptive.start = 2 * kHour;
  adaptive.stop = 3 * kHour;
  adaptive.takedowns_per_hour = 60.0;
  adaptive.betweenness_pivots = 32;
  adaptive.rank = RankMetric::Degree;
  adaptive.refresh_period = kNeverRefresh;
  adaptive.soap_tick = 2 * kMinute;
  adaptive.soap_rounds_per_tick = 3;
  spec.attacks = {random, adaptive};

  AttackPhase soap;
  soap.kind = AttackKind::SoapInjection;
  soap.soap_tick = 30 * kSecond;
  soap.soap_rounds_per_tick = 2;
  AttackPhase central;
  central.kind = AttackKind::CentralityTakedown;
  central.takedowns_per_hour = 30.0;
  central.betweenness_pivots = 16;
  spec.waves.start = 4 * kHour;
  spec.waves.waves = {{soap, 20 * kMinute, 10 * kMinute},
                      {central, 15 * kMinute, 0}};

  spec.defense.rate_limit_per_round = 5;
  spec.defense.pow_base_cost = 0.5;
  spec.defense.pow_growth = 1.5;
  spec.defense.round = 2 * kMinute;
  spec.defense.charge_healing = true;
  spec.metrics.period = 5 * kMinute;
  spec.metrics.degree_histogram = false;
  spec.metrics.diameter_sweeps = 4;
  return spec;
}

CellResult full_cell() {
  CellResult cell;
  cell.label = "churn=heavy,seed=42";
  cell.seed = 42;
  cell.fingerprint = std::string(64, 'c');
  cell.series = {full_snapshot(false), full_snapshot(true)};
  cell.counters.joins = 321;
  cell.counters.leaves = 123;
  cell.counters.takedowns = 77;
  cell.events_executed = 987654;
  cell.wall_seconds = 2.375;
  return cell;
}

FailedCell full_failed_cell(std::uint64_t index) {
  FailedCell failed;
  failed.cell_index = index;
  failed.label = "seed=" + std::to_string(index);
  failed.seed = index * 1000 + 1;
  failed.attempts = 3;
  failed.error = "worker killed by signal 9";
  return failed;
}

detection::RocFamilyCount family(const char* name, std::size_t flagged,
                                 std::size_t population) {
  detection::RocFamilyCount f;
  f.family = name;
  f.flagged = flagged;
  f.population = population;
  return f;
}

detection::RocPoint full_roc_point(bool with_families) {
  detection::RocPoint p;
  p.detector = "flow-beacon";
  p.params = "size_cv=0.25,gap_cv=0.45";
  p.flagged = 40;
  p.true_positives = 31;
  p.false_positives = 9;
  p.tpr = 0.775;
  p.fpr = 0.0125;
  p.precision = 0.775;
  if (with_families)
    p.families = {family("onion", 31, 40), family("benign_tor", 9, 200)};
  return p;
}

detection::ReplayGridPoint full_replay_point(std::uint64_t seed) {
  detection::ReplayGridPoint p;
  p.campaign = 1;
  p.replay_seed = seed;
  p.detector = "tor-flagger";
  p.params = "min_flows=3";
  p.flows = 123456;
  p.flagged = 250;
  p.true_positives = 40;
  p.false_positives = 210;
  p.tpr = 1.0;
  p.fpr = 0.7;
  p.families = {family("onion", 40, 40), family("benign_tor", 210, 300),
                family("benign_web", 0, 500)};
  return p;
}

detection::ReplayGridCell full_replay_cell() {
  detection::ReplayGridCell cell;
  cell.cell_index = 5;
  cell.campaign = 2;
  cell.replay_seed = 9;
  cell.points = {full_replay_point(9), full_replay_point(10)};
  cell.wall_seconds = 0.625;
  return cell;
}

GridReport full_grid_report() {
  GridReport report;
  report.cells = {full_cell(), CellResult{}, full_cell()};
  report.cells[1].label = "seed=43";
  report.cells[1].seed = 43;
  report.failed_cells = {full_failed_cell(1), full_failed_cell(4)};
  report.combined_fingerprint = std::string(64, 'f');
  report.threads_used = 4;
  report.wall_seconds = 12.5;
  report.retries = 2;
  report.resumed_cells = 1;
  return report;
}

detection::ReplayGridReport full_replay_report() {
  detection::ReplayGridReport report;
  report.points = full_replay_cell().points;
  report.fingerprint = std::string(64, 'e');
  report.failed_cells = {full_failed_cell(3)};
  report.threads_used = 2;
  report.wall_seconds = 3.25;
  report.retries = 1;
  report.resumed_cells = 6;
  return report;
}

TEST(CodecLayout, MetricsSnapshot) {
  EXPECT_EQ(sha(codec::encode(full_snapshot(true))),
            "8b5756074639fb45c1a1e20c3234ec850ee7d14a9f075f6c97f3a1e499aca58a");
}

TEST(CodecLayout, MetricsSnapshotWithoutWaveTakedowns) {
  EXPECT_EQ(sha(codec::encode(full_snapshot(false))),
            "0ba0d0937761425446a7ceb7bfcceddabe2314d88b85f0ae65f06bcccc5f0806");
}

TEST(CodecLayout, CampaignEvent) {
  const CampaignEvent e{.at = 3 * kHour + 11,
                        .kind = TraceEventKind::HealPeering,
                        .a = 0x0123456789abcdefull,
                        .b = 77};
  EXPECT_EQ(sha(codec::encode(e)),
            "f39940ec23fff276cd9d4e8a412b93f065c43ad89d418382a93897621272f936");
}

TEST(CodecLayout, ScenarioSpec) {
  EXPECT_EQ(sha(codec::encode(full_spec())),
            "32999b71a442488ef5c1a8e57ef8d9fc46695801baa3b772e77df7943a9ff51e");
}

TEST(CodecLayout, TraceHeader) {
  const trace_io::TraceHeader header{full_spec(), {0, 1, 2, 7, 0xfffffffeu}};
  EXPECT_EQ(sha(codec::encode(header)),
            "4a512817c3f905bab298d867e1cea5b958605f0208fef8cd7d318e8cb7876761");
}

TEST(CodecLayout, TraceFooter) {
  trace_io::TraceFooter footer;
  footer.event_count = 1234567;
  footer.snapshot_count = 361;
  footer.chunk_count = 151;
  for (std::size_t i = 0; i < footer.event_digest.size(); ++i)
    footer.event_digest[i] = static_cast<std::uint8_t>(0xa0 + i);
  EXPECT_EQ(sha(codec::encode(footer)),
            "4fbb5f2ff1d3b27e421400afa131d83beaad049c59bc0201798370ec25565d7b");
}

TEST(CodecLayout, CellResult) {
  EXPECT_EQ(sha(codec::encode(full_cell())),
            "2f6310059b0323a1e3081b753b590e75c6f229c9ed13f78ae5d9a5f47e0cd44e");
}

TEST(CodecLayout, GridReportWithFailedCells) {
  EXPECT_EQ(sha(codec::encode(full_grid_report())),
            "7d143db799352f673c39da6bd393a71a13535098bb89d1f92616ed6fcb937325");
}

TEST(CodecLayout, RocPoint) {
  EXPECT_EQ(sha(codec::encode(full_roc_point(true))),
            "13d5f69b9cf45b7120d3f192a1341e7d5fca5593753e1c7aaf59c45aaf219925");
}

TEST(CodecLayout, RocPointWithoutFamilies) {
  EXPECT_EQ(sha(codec::encode(full_roc_point(false))),
            "b1a6b55fc2571ddf17eaa49ee12158cf7dac5f4bac4394eec5f1b9b37594188f");
}

TEST(CodecLayout, ReplayGridPoint) {
  EXPECT_EQ(sha(codec::encode(full_replay_point(9))),
            "56776e5edfd07a1e306b52a10bab0353f7a428d005dda6de078f1031e4ae9053");
}

TEST(CodecLayout, ReplayGridCell) {
  EXPECT_EQ(sha(codec::encode(full_replay_cell())),
            "417589d419423e1c32739eff2dd55c31f287ff2b1093e0dade090ff063ebe044");
}

TEST(CodecLayout, ReplayGridReportWithFailedCells) {
  EXPECT_EQ(sha(codec::encode(full_replay_report())),
            "d17426d1f18585a8930fea773b08d4052cdd5786e6493a9bacc3ff220a26b96d");
}

// ====================================================================
// Frames: the complete bytes each frame kind puts on disk — magic,
// version, length, payload and digest — so a magic moved onto the
// wrong struct moves a pin even where every payload pin holds.
// ====================================================================

TEST(CodecLayout, FrameCellResult) {
  EXPECT_EQ(sha(wire::encode_frame(full_cell())),
            "ddd51d84c724fa87c0c775a9bb60ae6d7fdde0f28f469ff1bd760c33effd3b18");
}

TEST(CodecLayout, FrameGridReport) {
  EXPECT_EQ(sha(wire::encode_frame(full_grid_report())),
            "2716a6c858cb1e7ae9221f3690bdc7a4b74f646e8198e3e53c95869e15245b8e");
}

TEST(CodecLayout, FrameReplayGridCell) {
  EXPECT_EQ(sha(wire::encode_frame(full_replay_cell())),
            "d2475af3269fa2d0e29b61684f165f88ede8e50ed6a1f412a2d3f720d7ad26de");
}

TEST(CodecLayout, FrameReplayGridReport) {
  EXPECT_EQ(sha(wire::encode_frame(full_replay_report())),
            "b2123892b2229ca400d12c1652626382d638c1dc2fbb88565433ccd32ff74e15");
}

// A hand-fed trace (no engine, so only the file format can move it):
// a header, three chunk frames of at most two records, and the footer.
TEST(CodecLayout, FrameTraceFile) {
  const std::string path = ::testing::TempDir() + "codec_frame_pin.trace";
  {
    trace_io::TraceWriter writer(path, {.chunk_records = 2});
    writer.on_begin(full_spec(), {0, 1, 2, 7});
    writer.on_event({.at = 5, .kind = TraceEventKind::Join, .a = 8, .b = 0});
    writer.on_snapshot(full_snapshot(true));
    writer.on_event(
        {.at = 9, .kind = TraceEventKind::Peering, .a = 8, .b = 2});
    writer.on_event(
        {.at = 11, .kind = TraceEventKind::Takedown, .a = 1, .b = 0});
    writer.on_snapshot(full_snapshot(false));
    writer.finish();
  }
  const Bytes file = read_file_bytes(path);
  std::remove(path.c_str());
  EXPECT_EQ(to_hex(BytesView(file).first(8)), "4f42544844520001");
  EXPECT_EQ(to_hex(BytesView(file).last(trace_io::kFooterFrameBytes)
                       .first(8)),
            "4f42544654520001");
  EXPECT_EQ(sha(file),
            "f4633b05c44d771361743d6df056f4cc6bb4b97c2c0508a7890e78dd83634893");
}

detection::DnsRecord full_dns_record() {
  detection::DnsRecord r;
  r.client = 0xfffffffeu;
  r.qname = "xk3f9q0a.example";
  r.nxdomain = true;
  r.ttl = 0x89abcdefu;
  r.resolved = 0x0a000007u;
  r.at = 2 * kHour + 13;
  return r;
}

detection::FlowRecord full_flow_record() {
  detection::FlowRecord f;
  f.src = 41;
  f.dst = 0xfffffff0u;
  f.dst_port = 9001;
  f.bytes = 0x123456789ull;
  f.encrypted = true;
  f.at = 5 * kHour + 2;
  return f;
}

// The records travel only inside a TrafficTrace, so each is pinned as
// the only record of an otherwise empty trace.
TEST(CodecLayout, DnsRecord) {
  detection::TrafficTrace trace;
  trace.dns = {full_dns_record()};
  EXPECT_EQ(sha(detection::serialize(trace)),
            "cb7b59ffbbbdc65fed5ce173c8b90b511f59896d95cfe6ee025c29c17a5ff67b");
}

TEST(CodecLayout, FlowRecord) {
  detection::TrafficTrace trace;
  trace.flows = {full_flow_record()};
  EXPECT_EQ(sha(detection::serialize(trace)),
            "26c3978478ab568a98486661176fca269c53f90843774e3e6a734ef15a0d71ff");
}

TEST(CodecLayout, TrafficTrace) {
  detection::TrafficTrace trace;
  trace.dns = {full_dns_record(), detection::DnsRecord{}};
  trace.flows = {detection::FlowRecord{}, full_flow_record()};
  trace.infected = {3, 0xffffffffu};
  trace.hosts = {3, 4, 5, 0xffffffffu};
  trace.known_tor_relays = {900};
  EXPECT_EQ(sha(detection::serialize(trace)),
            "c01941040e45581fd9a6119ca27efe3576ecc53ac8a14b1872ca65f17df9dc98");
  EXPECT_EQ(detection::fingerprint(trace),
            sha(detection::serialize(trace)));
}

// ====================================================================
// Forged counts: rejected against the remaining bytes, before reserve
// ====================================================================

/// `bytes` with the big-endian word at `offset` replaced by `value`.
Bytes forge(Bytes bytes, std::size_t offset, std::uint64_t value) {
  const Bytes word = be64(value);
  std::copy(word.begin(), word.end(),
            bytes.begin() + static_cast<std::ptrdiff_t>(offset));
  return bytes;
}

/// The WireError message `decode` throws; any other exception escapes
/// and fails the test.
template <typename Fn>
std::string wire_error(Fn&& decode) {
  try {
    decode();
  } catch (const wire::WireError& e) {
    return e.what();
  }
  ADD_FAILURE() << "decoded without a WireError";
  return {};
}

constexpr std::uint64_t kForgedCounts[] = {std::uint64_t{1} << 62,
                                           std::uint64_t{1} << 32,
                                           ~std::uint64_t{0}};

TEST(CodecBounds, ForgedSnapshotHistogramCountIsAWireError) {
  MetricsSnapshot s = full_snapshot(false);
  s.degree_histogram.clear();
  const Bytes encoded = codec::encode(s);
  const std::size_t count_at = 18 * 8;  // after the 18 leading words
  for (const std::uint64_t forged : kForgedCounts) {
    const std::string what = wire_error([&] {
      (void)codec::decode<MetricsSnapshot>(forge(encoded, count_at, forged));
    });
    EXPECT_NE(what.find("MetricsSnapshot.degree_histogram"),
              std::string::npos)
        << what;
  }
}

TEST(CodecBounds, ForgedReplayPointFamiliesCountIsAWireError) {
  detection::ReplayGridPoint p = full_replay_point(9);
  p.families.clear();
  const Bytes encoded = codec::encode(p);
  for (const std::uint64_t forged : kForgedCounts) {
    const std::string what = wire_error([&] {
      (void)codec::decode<detection::ReplayGridPoint>(
          forge(encoded, encoded.size() - 8, forged));
    });
    EXPECT_NE(what.find("ReplayGridPoint.families"), std::string::npos)
        << what;
  }
}

TEST(CodecBounds, ForgedTraceHeaderNodeCountIsAWireError) {
  const Bytes encoded = codec::encode(trace_io::TraceHeader{full_spec(), {}});
  for (const std::uint64_t forged : kForgedCounts) {
    const std::string what = wire_error([&] {
      (void)codec::decode<trace_io::TraceHeader>(
          forge(encoded, encoded.size() - 8, forged));
    });
    EXPECT_NE(what.find("TraceHeader.initial_nodes"), std::string::npos)
        << what;
  }
}

TEST(CodecBounds, ForgedGridReportCellCountIsAWireError) {
  GridReport report;
  report.combined_fingerprint = std::string(64, 'f');
  const Bytes encoded = codec::encode(report);
  for (const std::uint64_t forged : kForgedCounts) {
    const std::string what = wire_error([&] {
      (void)codec::decode<GridReport>(forge(encoded, 0, forged));
    });
    EXPECT_NE(what.find("GridReport.cells"), std::string::npos) << what;
  }
}

TEST(CodecBounds, ErrorsNameTheFieldPathThroughNestedStructs) {
  trace_io::TraceHeader header{full_spec(), {1, 2}};
  header.spec.attacks[1].kind = static_cast<AttackKind>(9);
  const std::string what = wire_error([&] {
    (void)codec::decode<trace_io::TraceHeader>(codec::encode(header));
  });
  EXPECT_NE(what.find("TraceHeader.spec: ScenarioSpec.attacks: "
                      "AttackPhase.kind: unknown enumerator value 9"),
            std::string::npos)
      << what;
}

// ====================================================================
// Enums: each accepts exactly its enumerators
// ====================================================================

/// Round-trips every value of `holder.*field` up to `last`, and expects
/// the next value and the largest byte to be rejected.
template <typename S, typename E>
void expect_enumerators_up_to(S holder, E S::*field, E last) {
  const auto n = static_cast<std::uint64_t>(last);
  for (std::uint64_t v = 0; v <= n; ++v) {
    holder.*field = static_cast<E>(v);
    EXPECT_EQ(codec::decode<S>(codec::encode(holder)).*field, holder.*field);
  }
  for (const std::uint64_t v : {n + 1, std::uint64_t{255}}) {
    holder.*field = static_cast<E>(v);
    const Bytes encoded = codec::encode(holder);
    const std::string what =
        wire_error([&] { (void)codec::decode<S>(encoded); });
    EXPECT_NE(what.find("unknown enumerator value " + std::to_string(v)),
              std::string::npos)
        << what;
  }
}

TEST(CodecEnums, EverySerializedEnumAcceptsExactlyItsEnumerators) {
  expect_enumerators_up_to(AttackPhase{}, &AttackPhase::kind,
                           AttackKind::AdaptiveTakedown);
  expect_enumerators_up_to(AttackPhase{}, &AttackPhase::rank,
                           RankMetric::Degree);
  expect_enumerators_up_to(SessionSpec{}, &SessionSpec::model,
                           SessionModel::LogNormal);
  expect_enumerators_up_to(CampaignEvent{}, &CampaignEvent::kind,
                           TraceEventKind::HealPeering);
}

TEST(CodecEnums, TraceHoldingAnUnknownEventKindFailsToRead) {
  const std::string path = ::testing::TempDir() + "codec_unknown_kind.trace";
  {
    trace_io::TraceWriter writer(path);
    writer.on_begin(ScenarioSpec{}, {1, 2});
    writer.on_event({.at = 5, .kind = TraceEventKind::Join, .a = 3, .b = 0});
    writer.on_event({.at = 9,
                     .kind = static_cast<TraceEventKind>(200),
                     .a = 1,
                     .b = 0});
    writer.finish();
  }
  const trace_io::TraceReader reader(path);
  const std::string what = wire_error(
      [&] { reader.for_each_event([](const CampaignEvent&) {}); });
  EXPECT_NE(what.find("CampaignEvent.kind: unknown enumerator value 200"),
            std::string::npos)
      << what;
  EXPECT_THROW((void)reader.fingerprint(), wire::WireError);
  EXPECT_THROW((void)reader.lifetimes(), wire::WireError);
  std::remove(path.c_str());
}

// ====================================================================
// Member counting: what turns an unlisted field into a compile error
// ====================================================================

/// A struct whose field list forgot a member: encode() on it would not
/// compile, so the test inspects the two counts the check compares.
struct ForgotAMember {
  std::uint64_t listed = 0;
  std::uint64_t forgotten = 0;
  static auto fields(auto& s, auto&& v) {
    return v("ForgotAMember", codec::u64("listed", s.listed));
  }
};

TEST(CodecArity, UnlistedMemberMakesTheCountsDiffer) {
  EXPECT_EQ(codec::detail::member_count<ForgotAMember>(), 2u);
  EXPECT_EQ((codec::detail::Layout<ForgotAMember,
                                   codec::detail::CountFields>::value),
            1u);
}

TEST(CodecArity, MemberCountSeesNestedAggregatesAndArraysAsOneMember) {
  EXPECT_EQ(codec::detail::member_count<ScenarioSpec>(), 9u);
  EXPECT_EQ(codec::detail::member_count<AttackWave>(), 3u);
  EXPECT_EQ(codec::detail::member_count<trace_io::TraceFooter>(), 4u);
  EXPECT_EQ(codec::detail::member_count<MetricsSnapshot>(), 20u);
}

TEST(CodecArity, FixedSizesComeFromTheFieldLists) {
  EXPECT_EQ(codec::fixed_size<CampaignEvent>(), 25u);
  EXPECT_EQ(codec::encode(CampaignEvent{}).size(),
            codec::fixed_size<CampaignEvent>());
  EXPECT_EQ(trace_io::kFooterPayloadBytes, 56u);
  EXPECT_EQ(codec::min_size<MetricsSnapshot>(), 19u * 8);
}

}  // namespace
}  // namespace onion::scenario

// ====================================================================
// Bot-layer layouts (paper §IV-D): every control- and command-plane
// message through its public encoder
// ====================================================================

namespace onion::core {
namespace {

std::string sha(const Bytes& bytes) {
  const crypto::Sha256Digest d = crypto::Sha256::hash(bytes);
  return to_hex(BytesView(d.data(), d.size()));
}

tor::OnionAddress address(std::uint8_t salt) {
  tor::OnionAddress::Identifier id;
  for (std::size_t i = 0; i < id.size(); ++i)
    id[i] = static_cast<std::uint8_t>(salt * 17 + i);
  return tor::OnionAddress(id);
}

RentalToken full_token() {
  RentalToken token;
  token.renter_key = {0xc0ffee1234567ull, 65537, 2048};
  token.expires_at = 10 * kHour + 5;
  token.whitelist = {CommandType::Spam, CommandType::Compute,
                     CommandType::Recon};
  token.master_signature = 0x0badc0de5eedull;
  return token;
}

Command full_command() {
  Command cmd;
  cmd.type = CommandType::Ddos;
  cmd.argument = "victim.example:443";
  cmd.issued_at = 3 * kHour + 17;
  cmd.nonce = 0xfeedfacecafebeefull;
  return cmd;
}

SignedCommand full_signed(bool with_token) {
  SignedCommand sc;
  sc.command = full_command();
  sc.signature = 0x123456789abcdefull;
  if (with_token) sc.token = full_token();
  return sc;
}

/// A token's wire form on its own (body, then master signature).
Bytes token_wire(const RentalToken& token) { return codec::encode(token); }

TEST(CodecLayout, BotPeerRequest) {
  EXPECT_EQ(sha(encode_peer_request({address(1), 7})),
            "51c1932cfcbdf33a1c7dd450f4dba2d1c4b20a499d30528c663ad9045c43580a");
}

TEST(CodecLayout, BotPeerReplyWithNeighbors) {
  EXPECT_EQ(sha(encode_peer_reply({true, 4, {address(2), address(3)}})),
            "dfa9b55cdc8799fa3fb13f654b48d1d2103efaf604ea8425e76715021f627972");
}

TEST(CodecLayout, BotPeerReplyWithoutNeighbors) {
  EXPECT_EQ(sha(encode_peer_reply({false, 9, {}})),
            "ee50296116974e4bd9513b393a58e4edecc729a6b689594a8be24521246b12be");
}

TEST(CodecLayout, BotPeerDrop) {
  EXPECT_EQ(sha(encode_peer_drop({address(4)})),
            "cc0e90fe6c5760f579aff314db341774645edcdd94da70f1d8e97b130e067c0b");
}

TEST(CodecLayout, BotNoNShare) {
  EXPECT_EQ(sha(encode_non_share(
                {address(5), {address(6), address(7), address(8)}, 3})),
            "33f5c48eae4703d2ccee39c0199050f2a064bcf7e22d4ecb9b8aacf060c44914");
}

TEST(CodecLayout, BotAddressChange) {
  EXPECT_EQ(sha(encode_address_change({address(9), address(10)})),
            "eacf9d309e7171316af5be8ba941e46e786aacf7af7bd1da2736c09ffa0c13cc");
}

TEST(CodecLayout, BotProbe) {
  EXPECT_EQ(sha(encode_probe({0xdeadbeef01ull, 6})),
            "17d606435e28e8ed4f46ff1e6998b78549c64d178a98066b96ad8ede23cd0492");
}

TEST(CodecLayout, BotPing) {
  EXPECT_EQ(sha(encode_ping()),
            "e77b9a9ae9e30b0dbdb6f510a264ef9de781501d7b6b92ae89eb059c5ab743db");
}

TEST(CodecLayout, BotBroadcast) {
  Bytes envelope(300);
  for (std::size_t i = 0; i < envelope.size(); ++i)
    envelope[i] = static_cast<std::uint8_t>(i * 7);
  EXPECT_EQ(sha(encode_broadcast(envelope)),
            "c153fc33d89fe585fd95809cb9f24384de392680f9baa278b9d23d7fbd0ca677");
}

TEST(CodecLayout, BotProbeChallenge) {
  EXPECT_EQ(sha(encode_probe_challenge(to_bytes("challenge-envelope"))),
            "079f99f422fde0d542c800f00b15f458dea8345741e822c146ced0094774652e");
}

TEST(CodecLayout, BotDirectCommand) {
  EXPECT_EQ(sha(encode_direct_command(full_signed(false))),
            "ea46dd30ae02e9cd0475f4ef2399f0c0299a5a40f85fe2cc9e81a704bae551b7");
}

TEST(CodecLayout, BotDirectCommandWithRentalToken) {
  EXPECT_EQ(sha(encode_direct_command(full_signed(true))),
            "a4bf0e367a65aa6db4e9399feb37b30d7af212f8a03d0e1c0fd1d60580024cbd");
}

TEST(CodecLayout, BotCommand) {
  EXPECT_EQ(sha(full_command().serialize()),
            "29c2e3dd2b189c512e062e681445a0562948b4586e37a584cf4c95c6e6c490e7");
}

TEST(CodecLayout, BotSignedCommand) {
  EXPECT_EQ(sha(full_signed(true).serialize()),
            "b2c3b4310378d04fc7ca09b399fb85d60c2e8579adca7f7f43fd9ef4b104a4e9");
}

TEST(CodecLayout, BotRentalToken) {
  EXPECT_EQ(sha(token_wire(full_token())),
            "6a11fcfeb20f24542d4437dd8826157d66fcaaac353d61f5d87c633d7d0c77fb");
}

TEST(CodecLayout, BotRentalTokenSignedBody) {
  EXPECT_EQ(sha(full_token().signed_body()),
            "679c449aa17bed6fb224faea6fe1c56deefe5d0b34debdc50a524aeb526964a1");
}

}  // namespace
}  // namespace onion::core

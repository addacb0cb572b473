// Replay-grid tests: the FlowScorer's verdicts are *equal* — set
// equality, not approximation — to independent references over the same
// capture (a direct per-source count of flows to relays, and the
// map-based scorer it replaced, kept as an oracle in
// reference_flow_scorer.hpp, on grouped, interleaved and unclosed feeds
// alike); the size CV is summed in emission order; the
// batch replay is the streamed replay
// collected, flow for flow and verdict for verdict; the streamed replay
// is deterministic; the grid fingerprint is thread-count invariant; and the
// family-resolved RocSweep keeps the legacy aggregate encoding
// byte-identical while adding correct per-population columns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "detection/flow_detector.hpp"
#include "detection/replay.hpp"
#include "detection/replay_grid.hpp"
#include "detection/roc.hpp"
#include "detection/telemetry.hpp"
#include "detection/tor_flagger.hpp"
#include "reference_flow_scorer.hpp"
#include "scenario/engine.hpp"

namespace onion::detection {
namespace {

using scenario::CampaignEngine;
using scenario::CampaignTrace;
using scenario::ScenarioSpec;

ScenarioSpec busy_spec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.initial_size = 150;
  spec.degree = 6;
  spec.horizon = 2 * kHour;
  spec.churn.joins_per_hour = 40.0;
  spec.churn.leaves_per_hour = 40.0;
  scenario::AttackPhase takedown;
  takedown.kind = scenario::AttackKind::RandomTakedown;
  takedown.start = 15 * kMinute;
  takedown.stop = kHour;
  takedown.takedowns_per_hour = 40.0;
  spec.attacks.push_back(takedown);
  spec.metrics.period = 10 * kMinute;
  return spec;
}

CampaignTrace record(const ScenarioSpec& spec) {
  CampaignTrace campaign;
  CampaignEngine(spec, campaign, &campaign).run();
  return campaign;
}

ReplayConfig small_replay(std::uint64_t seed) {
  ReplayConfig rc;
  rc.seed = seed;
  rc.benign_web = 60;
  rc.benign_tor = 15;
  rc.centralized_bots = 10;
  rc.dga_bots = 10;
  rc.fastflux_bots = 10;
  rc.p2p_bots = 12;
  rc.onion_mean_gap = kMinute;
  return rc;
}

/// Every flow-beacon and tor-flagger operating point RocSweep sweeps.
FlowScorerConfig full_scorer_config() {
  FlowScorerConfig config;
  for (const double size_cv : {0.1, 0.25, 0.5, 0.75})
    for (const double gap_cv : {0.2, 0.45, 0.7, 1.0}) {
      FlowDetectorConfig c;
      c.size_cv_threshold = size_cv;
      c.gap_cv_threshold = gap_cv;
      config.beacon_thresholds.push_back(c);
    }
  config.tor_min_flows = {1, 3, 10, 30};
  return config;
}

// ====================================================================
// FlowScorer == independent references
// ====================================================================

TEST(FlowScorer, MatchesBatchDetectorsOnTheSameCapture) {
  const CampaignTrace campaign = record(busy_spec(51));
  const ReplayResult replay = replay_trace(campaign, small_replay(0x5ca1e));
  const TrafficTrace& trace = replay.trace;
  const FlowScorerConfig config = full_scorer_config();
  const FlowScorer scorer = score_trace(trace, config);
  EXPECT_EQ(scorer.flows_scored(), trace.flows.size());

  // Flow-beacon reference: the map-based oracle's verdict per threshold.
  // detect_beacons wraps the scorer, so it must agree as well.
  oracle::ReferenceFlowScorer oracle_scorer(config);
  feed_trace(trace, oracle_scorer);
  oracle_scorer.finish();
  ASSERT_EQ(scorer.beacon_flagged().size(), config.beacon_thresholds.size());
  ASSERT_EQ(oracle_scorer.beacon_flagged().size(),
            config.beacon_thresholds.size());
  std::size_t beacon_hits = 0;
  for (std::size_t i = 0; i < config.beacon_thresholds.size(); ++i) {
    const FlowDetectorConfig& c = config.beacon_thresholds[i];
    const std::vector<HostId>& reference = oracle_scorer.beacon_flagged()[i];
    beacon_hits += reference.size();
    EXPECT_EQ(scorer.beacon_flagged()[i], reference)
        << "beacon threshold " << i << " diverged";
    EXPECT_EQ(detect_beacons(trace, c).flagged, reference);
  }
  EXPECT_GT(beacon_hits, 0u);

  // Tor-flagger reference: a direct per-source count of flows to relays.
  const std::set<HostId> relays(trace.known_tor_relays.begin(),
                                trace.known_tor_relays.end());
  std::map<HostId, std::size_t> tor_flows;
  for (const FlowRecord& f : trace.flows)
    if (relays.count(f.dst) > 0) ++tor_flows[f.src];
  ASSERT_FALSE(tor_flows.empty());
  ASSERT_EQ(scorer.tor_flagged().size(), config.tor_min_flows.size());
  for (std::size_t i = 0; i < config.tor_min_flows.size(); ++i) {
    std::vector<HostId> reference;
    for (const auto& [host, count] : tor_flows)
      if (count >= config.tor_min_flows[i]) reference.push_back(host);
    EXPECT_EQ(scorer.tor_flagged()[i], reference)
        << "tor threshold " << i << " diverged";
    EXPECT_EQ(detect_tor_users(trace, config.tor_min_flows[i]).flagged,
              reference);
  }
}

/// The trace's flows interleaved across hosts in a seeded order that
/// keeps each host's own flows in emission order.
std::vector<const FlowRecord*> interleave(const TrafficTrace& trace,
                                          std::uint64_t seed) {
  std::map<HostId, std::vector<const FlowRecord*>> by_src;
  for (const FlowRecord& f : trace.flows) by_src[f.src].push_back(&f);
  std::vector<std::pair<std::vector<const FlowRecord*>*, std::size_t>> open;
  for (auto& [src, flows] : by_src) open.push_back({&flows, 0});
  Rng rng(seed);
  std::vector<const FlowRecord*> out;
  while (!open.empty()) {
    const std::size_t i = rng.uniform(open.size());
    auto& [flows, next] = open[i];
    out.push_back((*flows)[next++]);
    if (next == flows->size()) {
      open[i] = open.back();
      open.pop_back();
    }
  }
  return out;
}

/// How a capture reaches the scorers under comparison.
enum class Feed {
  Interleaved,        // hosts interleaved, never closed: finish() settles
  InterleavedClosed,  // interleaved, each host closed after its last flow
};

/// Feeds `trace` to `sink` in the given order: relays, DNS, then flows.
void feed_interleaved(const TrafficTrace& trace, Feed feed,
                      std::uint64_t seed, FlowSink& sink) {
  sink.on_relays(trace.known_tor_relays);
  for (const DnsRecord& d : trace.dns) sink.on_dns(d);
  const std::vector<const FlowRecord*> order = interleave(trace, seed);
  std::map<HostId, std::size_t> left;
  for (const FlowRecord& f : trace.flows) ++left[f.src];
  for (const FlowRecord* f : order) {
    sink.on_flow(*f);
    if (feed == Feed::InterleavedClosed && --left[f->src] == 0)
      sink.on_host_done(f->src);
  }
}

TEST(FlowScorer, UngroupedFeedMatchesScoreTrace) {
  const CampaignTrace campaign = record(busy_spec(59));
  const ReplayResult replay = replay_trace(campaign, small_replay(0xfeed));
  const TrafficTrace& trace = replay.trace;
  const FlowScorerConfig config = full_scorer_config();
  const FlowScorer grouped = score_trace(trace, config);

  // No on_host_done at all: finish() settles every host.
  FlowScorer ungrouped(config);
  feed_interleaved(trace, Feed::Interleaved, 17, ungrouped);
  ungrouped.finish();
  EXPECT_EQ(ungrouped.flows_scored(), trace.flows.size());
  EXPECT_EQ(ungrouped.beacon_flagged(), grouped.beacon_flagged());
  EXPECT_EQ(ungrouped.tor_flagged(), grouped.tor_flagged());

  std::size_t beacon_hits = 0;
  for (const std::vector<HostId>& v : grouped.beacon_flagged())
    beacon_hits += v.size();
  EXPECT_GT(beacon_hits, 0u);
  EXPECT_FALSE(grouped.tor_flagged().front().empty());
}

TEST(FlowScorer, SizeCvIsSummedInEmissionOrder) {
  // Fourteen sizes whose CV moves in its last bits when they are summed
  // in sorted or in reversed order.
  const std::vector<std::size_t> sizes = {1200, 1279, 1261, 1243, 1225,
                                          1207, 1286, 1268, 1250, 1232,
                                          1214, 1293, 1275, 1257};
  const std::vector<double> emitted(sizes.begin(), sizes.end());
  std::vector<double> sorted = emitted;
  std::sort(sorted.begin(), sorted.end());
  const std::vector<double> reversed(emitted.rbegin(), emitted.rend());
  const double cv_emitted = coefficient_of_variation(emitted);
  ASSERT_NE(cv_emitted, coefficient_of_variation(sorted))
      << "the sizes no longer tell emission from sorted order";
  ASSERT_NE(cv_emitted, coefficient_of_variation(reversed))
      << "the sizes no longer tell emission from reversed order";

  // One clock-regular channel from host 1 to host 7, its flows
  // interleaved with size-erratic channels of host 1 and of host 2.
  TrafficTrace trace;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::size_t erratic = i % 2 == 0 ? 40 : 40000;
    const SimTime at = (2 * i + 1) * kMinute;
    trace.flows.push_back({.src = 2, .dst = 9, .bytes = erratic, .at = at});
    trace.flows.push_back({.src = 1, .dst = 9, .bytes = erratic, .at = at});
    trace.flows.push_back(
        {.src = 1, .dst = 7, .bytes = sizes[i], .at = (i + 1) * 2 * kMinute});
  }
  const auto flagged = [&](double size_cv) {
    FlowScorerConfig config;
    FlowDetectorConfig c;
    c.size_cv_threshold = size_cv;
    c.gap_cv_threshold = 0.45;
    config.beacon_thresholds.push_back(c);
    oracle::ReferenceFlowScorer reference(config);
    feed_trace(trace, reference);
    reference.finish();
    const FlowScorer scorer = score_trace(trace, config);
    EXPECT_EQ(scorer.beacon_flagged(), reference.beacon_flagged());
    // The same flows as emitted, hosts interleaved and never closed.
    FlowScorer raw(config);
    for (const FlowRecord& f : trace.flows) raw.on_flow(f);
    raw.finish();
    EXPECT_EQ(raw.beacon_flagged(), scorer.beacon_flagged());
    return scorer.beacon_flagged().front();
  };
  EXPECT_EQ(flagged(std::nextafter(cv_emitted,
                                   std::numeric_limits<double>::infinity())),
            std::vector<HostId>{1});
  EXPECT_TRUE(flagged(cv_emitted).empty());
}

/// Forwards a stream to two sinks.
class TeeSink final : public FlowSink {
 public:
  TeeSink(FlowSink& a, FlowSink& b) : a_(a), b_(b) {}
  void on_relays(const std::vector<HostId>& relays) override {
    a_.on_relays(relays);
    b_.on_relays(relays);
  }
  void on_dns(const DnsRecord& d) override {
    a_.on_dns(d);
    b_.on_dns(d);
  }
  void on_flow(const FlowRecord& f) override {
    a_.on_flow(f);
    b_.on_flow(f);
  }
  void on_host_done(HostId host) override {
    a_.on_host_done(host);
    b_.on_host_done(host);
  }

 private:
  FlowSink& a_;
  FlowSink& b_;
};

TEST(FlowScorer, AgreesWithTheReferenceScorerAcrossReplays) {
  const std::vector<CampaignTrace> campaigns = {record(busy_spec(60)),
                                                record(busy_spec(61))};
  // A second threshold grid whose min_flows reach down to one flow, so
  // every channel length is judged.
  FlowScorerConfig short_channels;
  for (const std::size_t min_flows : {1, 3, 12, 40})
    for (const double size_cv : {0.25, 0.75})
      short_channels.beacon_thresholds.push_back(
          {.min_flows = min_flows,
           .size_cv_threshold = size_cv,
           .gap_cv_threshold = 0.7});
  short_channels.tor_min_flows = {1, 2, 30, 300};
  const std::vector<std::size_t> caps = {ReplayConfig::kAllBots, 40, 7, 0};

  std::size_t beacon_hits = 0;
  std::size_t tor_hits = 0;
  for (std::uint64_t i = 0; i < 24; ++i) {
    const CampaignTrace& campaign = campaigns[i % campaigns.size()];
    ReplayConfig rc = small_replay(1000 + i);
    if (i / 4 % 2 == 1)
      rc.centralized_bots = rc.dga_bots = rc.fastflux_bots = rc.p2p_bots = 0;
    rc.max_onion_bots = caps[i % caps.size()];
    const FlowScorerConfig config =
        i % 3 == 0 ? short_channels : full_scorer_config();
    const std::string where = "config " + std::to_string(i);

    const auto expect_agree = [&](const FlowScorer& scorer,
                                  const oracle::ReferenceFlowScorer& ref,
                                  const char* feed) {
      EXPECT_EQ(scorer.flows_scored(), ref.flows_scored()) << where << feed;
      EXPECT_EQ(scorer.beacon_flagged(), ref.beacon_flagged())
          << where << feed;
      EXPECT_EQ(scorer.tor_flagged(), ref.tor_flagged()) << where << feed;
      for (const std::vector<HostId>& v : scorer.beacon_flagged())
        beacon_hits += v.size();
      for (const std::vector<HostId>& v : scorer.tor_flagged())
        tor_hits += v.size();
    };

    // Streamed straight from the synthesizer, host by host.
    FlowScorer streamed(config);
    oracle::ReferenceFlowScorer streamed_ref(config);
    TeeSink tee(streamed, streamed_ref);
    replay_trace_streaming(campaign, rc, tee);
    streamed.finish();
    streamed_ref.finish();
    expect_agree(streamed, streamed_ref, " streamed");

    // The same capture materialized, then fed interleaved.
    const ReplayResult replay = replay_trace(campaign, rc);
    for (const Feed feed : {Feed::Interleaved, Feed::InterleavedClosed}) {
      FlowScorer scorer(config);
      oracle::ReferenceFlowScorer ref(config);
      TeeSink both(scorer, ref);
      feed_interleaved(replay.trace, feed, i, both);
      scorer.finish();
      ref.finish();
      expect_agree(scorer, ref,
                   feed == Feed::Interleaved ? " interleaved"
                                             : " interleaved+closed");
    }
  }
  EXPECT_GT(beacon_hits, 0u);
  EXPECT_GT(tor_hits, 0u);
}

// ====================================================================
// Streamed replay
// ====================================================================

/// A sink that checks the grouped-delivery contract and counts flows.
class GroupingCheckSink final : public FlowSink {
 public:
  void on_relays(const std::vector<HostId>& relays) override {
    relays_seen_ = relays.size();
  }
  void on_flow(const FlowRecord& f) override {
    if (current_ != kNone && f.src != current_) {
      EXPECT_EQ(done_.count(f.src), 0u)
          << "host " << f.src << " reopened after on_host_done";
    }
    current_ = f.src;
    ++flows_;
  }
  void on_host_done(HostId host) override {
    done_.insert(host);
    current_ = kNone;
  }

  std::uint64_t flows() const { return flows_; }
  std::size_t relays_seen() const { return relays_seen_; }

 private:
  static constexpr HostId kNone = ~HostId{0};
  HostId current_ = kNone;
  std::set<HostId> done_;
  std::uint64_t flows_ = 0;
  std::size_t relays_seen_ = 0;
};

TEST(StreamingReplay, PopulationsMatchTheBatchReplay) {
  const CampaignTrace campaign = record(busy_spec(52));
  const ReplayConfig rc = small_replay(0x5ca1e);
  const ReplayResult batch = replay_trace(campaign, rc);

  GroupingCheckSink sink;
  const StreamPopulations pops =
      replay_trace_streaming(campaign, rc, sink);

  // Same population layout and host-id assignment as the batch path.
  EXPECT_EQ(pops.infected, batch.trace.infected);
  EXPECT_EQ(pops.monitored, batch.trace.hosts);
  EXPECT_EQ(pops.known_tor_relays, batch.trace.known_tor_relays);
  EXPECT_EQ(sink.relays_seen(), batch.trace.known_tor_relays.size());
  EXPECT_EQ(pops.flows, sink.flows());
  EXPECT_GT(pops.flows, 0u);

  // The named family populations tile the infected set.
  const GroundTruth batch_truth = replay_ground_truth(batch);
  ASSERT_EQ(pops.truth.populations.size(),
            batch_truth.populations.size());
  for (std::size_t i = 0; i < batch_truth.populations.size(); ++i) {
    EXPECT_EQ(pops.truth.populations[i].name,
              batch_truth.populations[i].name);
    EXPECT_EQ(pops.truth.populations[i].hosts,
              batch_truth.populations[i].hosts);
  }
}

TEST(StreamingReplay, BatchReplayIsTheCollectedStream) {
  const CampaignTrace campaign = record(busy_spec(58));
  const ReplayConfig rc = small_replay(0x5ca1e);
  const ReplayResult batch = replay_trace(campaign, rc);

  FlowScorer streamed(full_scorer_config());
  const StreamPopulations pops =
      replay_trace_streaming(campaign, rc, streamed);
  streamed.finish();

  // One synthesizer: the batch capture holds exactly the streamed flows
  // (and keeps the DNS log the resolver-side detectors read)...
  EXPECT_EQ(batch.trace.flows.size(), pops.flows);
  EXPECT_FALSE(batch.trace.dns.empty());
  // ...so the flow verdicts over it equal the streamed verdicts.
  FlowScorer collected(full_scorer_config());
  feed_trace(batch.trace, collected);
  collected.finish();
  EXPECT_EQ(collected.beacon_flagged(), streamed.beacon_flagged());
  EXPECT_EQ(collected.tor_flagged(), streamed.tor_flagged());
}

TEST(StreamingReplay, IsDeterministicPerSeedAndSeedSensitive) {
  const CampaignTrace campaign = record(busy_spec(53));

  FlowScorerConfig config;
  FlowDetectorConfig c;
  config.beacon_thresholds.push_back(c);
  config.tor_min_flows = {3};

  const auto run = [&](std::uint64_t seed) {
    FlowScorer scorer(config);
    const StreamPopulations pops =
        replay_trace_streaming(campaign, small_replay(seed), scorer);
    scorer.finish();
    return std::pair<std::uint64_t, std::vector<HostId>>(
        pops.flows, scorer.tor_flagged()[0]);
  };

  const auto a = run(7), b = run(7), c2 = run(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c2);
}

// ====================================================================
// The grid
// ====================================================================

ReplayGridConfig small_grid() {
  ReplayGridConfig config;
  config.replay_seeds = {1, 2};
  config.replay = small_replay(0);  // per-cell seed overrides this
  config.flow_size_cv = {0.25, 0.5};
  config.flow_gap_cv = {0.45, 1.0};
  config.tor_min_flows = {1, 10};
  return config;
}

TEST(ReplayGrid, FingerprintIsThreadCountInvariant) {
  const CampaignTrace campaign = record(busy_spec(54));

  ReplayGridConfig config = small_grid();
  config.threads = 1;
  const ReplayGridReport serial = ReplayGrid(config).run(campaign);
  config.threads = 4;
  const ReplayGridReport wide = ReplayGrid(config).run(campaign);

  EXPECT_EQ(serial.points.size(),
            config.replay_seeds.size() * ReplayGrid(config).points_per_cell());
  EXPECT_EQ(serial.fingerprint, wide.fingerprint);
  EXPECT_GE(wide.threads_used, serial.threads_used);
}

TEST(ReplayGrid, PointsScoreAgainstTheFamilyGroundTruth) {
  const CampaignTrace campaign = record(busy_spec(55));
  const ReplayGridReport report =
      ReplayGrid(small_grid()).run(campaign);

  for (const ReplayGridPoint& p : report.points) {
    EXPECT_TRUE(p.detector == "flow-beacon" || p.detector == "tor-flagger");
    EXPECT_GT(p.flows, 0u);
    // Counts are internally consistent: flagged covers TP+FP (flagged
    // hosts outside the monitored set cannot exist by construction),
    // rates are in range, and family counts never exceed populations.
    EXPECT_EQ(p.true_positives + p.false_positives, p.flagged);
    EXPECT_GE(p.tpr, 0.0);
    EXPECT_LE(p.tpr, 1.0);
    EXPECT_GE(p.fpr, 0.0);
    EXPECT_LE(p.fpr, 1.0);
    ASSERT_FALSE(p.families.empty());
    std::size_t family_flagged = 0;
    for (const RocFamilyCount& f : p.families) {
      EXPECT_LE(f.flagged, f.population);
      family_flagged += f.flagged;
    }
    EXPECT_EQ(family_flagged, p.flagged);
  }

  // Grid order: campaign-major, seed, then detector axes.
  ASSERT_FALSE(report.points.empty());
  EXPECT_EQ(report.points.front().replay_seed, 1u);
  EXPECT_EQ(report.points.back().replay_seed, 2u);
}

// ====================================================================
// Family-resolved RocSweep
// ====================================================================

TEST(RocSweep, FamilyResolutionKeepsTheAggregateEncodingByteIdentical) {
  const CampaignTrace campaign = record(busy_spec(56));
  const ReplayResult replay = replay_trace(campaign, small_replay(0x5ca1e));
  const GroundTruth truth = replay_ground_truth(replay);
  ASSERT_FALSE(truth.populations.empty());

  const RocSweep sweep;
  const RocReport aggregate = sweep.run(replay.trace);
  const RocReport resolved = sweep.run(replay.trace, truth);
  ASSERT_EQ(aggregate.points.size(), resolved.points.size());

  for (std::size_t i = 0; i < aggregate.points.size(); ++i) {
    const RocPoint& a = aggregate.points[i];
    const RocPoint& r = resolved.points[i];
    // The legacy aggregate view is untouched: a family-resolved point
    // with its families stripped serializes to the exact legacy bytes.
    EXPECT_TRUE(a.families.empty());
    ASSERT_EQ(r.families.size(), truth.populations.size());
    RocPoint stripped = r;
    stripped.families.clear();
    EXPECT_EQ(codec::encode(stripped), codec::encode(a));
    // And the family columns are the verdict restricted per population:
    // the infected families' flagged counts sum to the true positives.
    std::size_t infected_flagged = 0;
    for (const RocFamilyCount& f : r.families) {
      EXPECT_LE(f.flagged, f.population);
      if (f.family != "benign_web" && f.family != "benign_tor")
        infected_flagged += f.flagged;
    }
    EXPECT_EQ(infected_flagged, a.true_positives);
  }
  // Same verdicts → same aggregate rates; the fingerprints differ only
  // because the resolved points carry the family block.
  EXPECT_NE(aggregate.fingerprint, resolved.fingerprint);
}

TEST(ScoreVerdict, CountsDuplicateAndUnsortedEntriesAsReported) {
  // Infected {3, 5, 9}; monitored seven hosts, four of them benign.
  const TruthIndex truth({5, 3, 9, 3}, {40, 1, 2, 3, 5, 9, 12});
  GroundTruth families;
  families.populations.push_back({"bots", {9, 3, 5, 3}});
  families.populations.push_back({"benign", {12, 1, 2, 40}});
  // Host 9 is reported twice; host 77 is not monitored.
  const RocPoint p = score_verdict("d", "p", {9, 12, 3, 9, 77, 1}, truth,
                                   families);
  EXPECT_EQ(p.flagged, 6u);
  EXPECT_EQ(p.true_positives, 3u);   // 9, 3, 9
  EXPECT_EQ(p.false_positives, 2u);  // 12, 1
  EXPECT_DOUBLE_EQ(p.tpr, 1.0);
  EXPECT_DOUBLE_EQ(p.fpr, 0.5);
  EXPECT_DOUBLE_EQ(p.precision, 0.5);
  ASSERT_EQ(p.families.size(), 2u);
  EXPECT_EQ(p.families[0].flagged, 3u);  // 9, 3, 3 of {9, 3, 5, 3}
  EXPECT_EQ(p.families[0].population, 4u);
  EXPECT_EQ(p.families[1].flagged, 2u);  // 12, 1
  EXPECT_EQ(p.families[1].population, 4u);
}

TEST(GroundTruthOrder, PopulationsArriveInTheFixedFamilyOrder) {
  const CampaignTrace campaign = record(busy_spec(57));
  const ReplayResult replay = replay_trace(campaign, small_replay(1));
  const GroundTruth truth = replay_ground_truth(replay);

  const std::vector<std::string> expected = {
      "onion",    "centralized", "dga", "fastflux",
      "p2p",      "benign_web",  "benign_tor"};
  ASSERT_EQ(truth.populations.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(truth.populations[i].name, expected[i]);
    EXPECT_FALSE(truth.populations[i].hosts.empty());
    EXPECT_TRUE(std::is_sorted(truth.populations[i].hosts.begin(),
                               truth.populations[i].hosts.end()));
  }
}

}  // namespace
}  // namespace onion::detection

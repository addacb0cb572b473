// Replay-grid tests: the FlowScorer's verdicts are *equal* — set
// equality, not approximation — to independent references over the same
// capture (thresholds over channel_features, a direct per-source count
// of flows to relays); the batch replay is the streamed replay
// collected, flow for flow and verdict for verdict; the streamed replay
// is deterministic; the grid fingerprint is thread-count invariant; and the
// family-resolved RocSweep keeps the legacy aggregate encoding
// byte-identical while adding correct per-population columns.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "detection/flow_detector.hpp"
#include "detection/replay.hpp"
#include "detection/replay_grid.hpp"
#include "detection/roc.hpp"
#include "detection/telemetry.hpp"
#include "detection/tor_flagger.hpp"
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

  // Flow-beacon reference: each threshold applied to channel_features.
  // detect_beacons wraps the scorer, so it must agree as well.
  ASSERT_EQ(scorer.beacon_flagged().size(), config.beacon_thresholds.size());
  std::size_t beacon_hits = 0;
  for (std::size_t i = 0; i < config.beacon_thresholds.size(); ++i) {
    const FlowDetectorConfig& c = config.beacon_thresholds[i];
    std::set<HostId> expected;
    for (const ChannelFeatures& f : channel_features(trace, c.min_flows))
      if (f.size_cv < c.size_cv_threshold && f.gap_cv < c.gap_cv_threshold)
        expected.insert(f.src);
    const std::vector<HostId> reference(expected.begin(), expected.end());
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

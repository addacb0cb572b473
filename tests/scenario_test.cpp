// Scenario campaign engine tests: the golden-determinism contract
// (equal spec + equal seed => byte-identical snapshot stream; different
// seed => different stream), snapshot cadence and semantics, attack
// phases, defense toggles, sink behavior, and the tracker's settled
// connectivity against the from-scratch sweep at every snapshot of
// random campaigns.
#include <gtest/gtest.h>

#include <algorithm>

#include "scenario/engine.hpp"

namespace onion::scenario {
namespace {

// A spec with enough going on that seeds matter: churn plus a
// random-takedown window.
ScenarioSpec busy_spec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.initial_size = 300;
  spec.degree = 6;
  spec.horizon = 20 * kMinute;
  spec.churn.joins_per_hour = 300.0;
  spec.churn.leaves_per_hour = 300.0;
  AttackPhase takedown;
  takedown.kind = AttackKind::RandomTakedown;
  takedown.start = 5 * kMinute;
  takedown.stop = 15 * kMinute;
  takedown.takedowns_per_hour = 120.0;
  spec.attacks.push_back(takedown);
  spec.metrics.period = kMinute;
  spec.metrics.diameter_sweeps = 2;
  return spec;
}

// ====================================================================
// Golden determinism
// ====================================================================

TEST(ScenarioDeterminism, EqualSeedReplaysByteIdentically) {
  HashSink first;
  CampaignEngine(busy_spec(42), first).run();
  HashSink second;
  CampaignEngine(busy_spec(42), second).run();
  EXPECT_EQ(first.count(), second.count());
  EXPECT_EQ(first.hex_digest(), second.hex_digest());
}

TEST(ScenarioDeterminism, EqualSeedMatchesSnapshotBySnapshot) {
  MemorySink first;
  CampaignEngine(busy_spec(7), first).run();
  MemorySink second;
  CampaignEngine(busy_spec(7), second).run();
  ASSERT_EQ(first.snapshots().size(), second.snapshots().size());
  for (std::size_t i = 0; i < first.snapshots().size(); ++i)
    EXPECT_EQ(codec::encode(first.snapshots()[i]),
              codec::encode(second.snapshots()[i]))
        << "snapshot " << i << " diverged";
}

TEST(ScenarioDeterminism, DifferentSeedDiverges) {
  HashSink first;
  CampaignEngine(busy_spec(42), first).run();
  HashSink second;
  CampaignEngine(busy_spec(43), second).run();
  EXPECT_EQ(first.count(), second.count());  // cadence is seed-free
  EXPECT_NE(first.hex_digest(), second.hex_digest());
}

// ====================================================================
// Snapshot cadence and content
// ====================================================================

TEST(ScenarioEngine, SnapshotsFollowTheMetricsPeriod) {
  ScenarioSpec spec = busy_spec(1);
  MemorySink sink;
  const MetricsSnapshot end = CampaignEngine(spec, sink).run();
  // t = 0 baseline plus one per minute through the 20-minute horizon.
  ASSERT_EQ(sink.snapshots().size(), 21u);
  for (std::size_t i = 0; i < sink.snapshots().size(); ++i)
    EXPECT_EQ(sink.snapshots()[i].time, i * kMinute);
  EXPECT_EQ(end.time, spec.horizon);
  EXPECT_EQ(codec::encode(end), codec::encode(sink.snapshots().back()));
}

TEST(ScenarioEngine, UnalignedHorizonStillSnapshotsAtTheEnd) {
  ScenarioSpec spec = busy_spec(1);
  spec.horizon = 5 * kMinute + 30 * kSecond;
  MemorySink sink;
  CampaignEngine(spec, sink).run();
  // 0..5 minutes plus the final half-minute mark.
  ASSERT_EQ(sink.snapshots().size(), 7u);
  EXPECT_EQ(sink.snapshots().back().time, spec.horizon);
}

TEST(ScenarioEngine, BaselineSnapshotDescribesThePristineOverlay) {
  ScenarioSpec spec = busy_spec(3);
  MemorySink sink;
  CampaignEngine(spec, sink).run();
  const MetricsSnapshot& start = sink.snapshots().front();
  EXPECT_EQ(start.time, 0u);
  EXPECT_EQ(start.honest_alive, 300u);
  EXPECT_EQ(start.sybil_alive, 0u);
  EXPECT_EQ(start.honest_edges, 300u * 6 / 2);
  EXPECT_EQ(start.components, 1u);
  EXPECT_EQ(start.largest_component, 300u);
  EXPECT_DOUBLE_EQ(start.largest_fraction, 1.0);
  EXPECT_DOUBLE_EQ(start.average_degree, 6.0);
  ASSERT_EQ(start.degree_histogram.size(), 7u);  // all mass at degree 6
  EXPECT_EQ(start.degree_histogram[6], 300u);
  EXPECT_NE(start.diameter, kNoDiameter);
  EXPECT_EQ(start.joins + start.leaves + start.takedowns, 0u);
}

TEST(ScenarioEngine, CumulativeCountersAreMonotone) {
  MemorySink sink;
  CampaignEngine(busy_spec(11), sink).run();
  const auto& snaps = sink.snapshots();
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_GE(snaps[i].joins, snaps[i - 1].joins);
    EXPECT_GE(snaps[i].leaves, snaps[i - 1].leaves);
    EXPECT_GE(snaps[i].takedowns, snaps[i - 1].takedowns);
    EXPECT_GE(snaps[i].repair_messages, snaps[i - 1].repair_messages);
  }
  // The takedown window is [5, 15) minutes: nothing before, something
  // after (120/h over 10 minutes ~ 20 victims).
  EXPECT_EQ(snaps[5].takedowns, 0u);
  EXPECT_GT(snaps.back().takedowns, 0u);
}

TEST(ScenarioEngine, ChurnKeepsTheHealedOverlayConnected) {
  ScenarioSpec spec = busy_spec(5);
  spec.attacks.clear();  // churn only
  MemorySink sink;
  const MetricsSnapshot end = CampaignEngine(spec, sink).run();
  EXPECT_GT(end.joins, 0u);
  EXPECT_GT(end.leaves, 0u);
  for (const MetricsSnapshot& s : sink.snapshots())
    EXPECT_TRUE(s.connected()) << "overlay fragmented at t=" << s.time;
}

// ====================================================================
// Attack phases
// ====================================================================

TEST(ScenarioEngine, TakedownsRemoveExactlyTheCountedVictims) {
  ScenarioSpec spec;
  spec.seed = 9;
  spec.initial_size = 200;
  spec.degree = 6;
  spec.horizon = 30 * kMinute;
  AttackPhase takedown;
  takedown.kind = AttackKind::TargetedTakedown;
  takedown.start = 0;
  takedown.stop = spec.horizon;
  takedown.takedowns_per_hour = 240.0;
  spec.attacks.push_back(takedown);
  spec.metrics.period = 5 * kMinute;
  MemorySink sink;
  CampaignEngine engine(spec, sink);
  const MetricsSnapshot end = engine.run();
  EXPECT_GT(end.takedowns, 0u);
  EXPECT_EQ(end.honest_alive, 200u - end.takedowns);
  EXPECT_EQ(engine.ddsr_stats().nodes_removed, end.takedowns);
}

TEST(ScenarioEngine, CentralityTakedownRunsOnSampledBetweenness) {
  ScenarioSpec spec;
  spec.seed = 13;
  spec.initial_size = 150;
  spec.degree = 6;
  spec.horizon = 20 * kMinute;
  AttackPhase takedown;
  takedown.kind = AttackKind::CentralityTakedown;
  takedown.start = 0;
  takedown.stop = spec.horizon;
  takedown.takedowns_per_hour = 180.0;
  takedown.betweenness_pivots = 24;
  spec.attacks.push_back(takedown);
  spec.metrics.period = 5 * kMinute;
  MemorySink sink;
  const MetricsSnapshot end = CampaignEngine(spec, sink).run();
  EXPECT_GT(end.takedowns, 0u);
  EXPECT_EQ(end.honest_alive, 150u - end.takedowns);
}

TEST(ScenarioEngine, SoapPhaseInjectsClonesAndContains) {
  ScenarioSpec spec;
  spec.seed = 17;
  spec.initial_size = 120;
  spec.degree = 6;
  spec.horizon = 30 * kMinute;
  AttackPhase soap;
  soap.kind = AttackKind::SoapInjection;
  soap.start = 5 * kMinute;
  soap.stop = spec.horizon;
  soap.soap_tick = kMinute;
  soap.soap_rounds_per_tick = 2;
  spec.attacks.push_back(soap);
  spec.metrics.period = 5 * kMinute;
  MemorySink sink;
  const MetricsSnapshot end = CampaignEngine(spec, sink).run();
  EXPECT_GT(end.soap_clones, 0u);
  EXPECT_EQ(end.sybil_alive, end.soap_clones);
  EXPECT_GT(end.soap_contained, 0u);
  // Containment severs honest-honest links: fragmentation rises.
  EXPECT_GT(end.components, 1u);
  EXPECT_LT(end.largest_fraction, 1.0);
  // The honest population itself was never taken down.
  EXPECT_EQ(end.honest_alive, 120u);
}

// ====================================================================
// Defense toggles
// ====================================================================

TEST(ScenarioEngine, RateLimitedJoinersAreRefilledNextRound) {
  ScenarioSpec spec;
  spec.seed = 29;
  spec.initial_size = 200;
  spec.degree = 6;
  spec.horizon = 30 * kMinute;
  spec.churn.joins_per_hour = 240.0;
  spec.defense.rate_limit_per_round = 1;  // aggressive throttling
  spec.defense.round = kMinute;
  spec.metrics.period = 5 * kMinute;
  MemorySink sink;
  CampaignEngine engine(spec, sink);
  const MetricsSnapshot end = engine.run();
  ASSERT_GT(end.joins, 0u);
  // A newcomer whose whole bootstrap round was throttled must not stay
  // isolated: the per-round maintenance pass retries it.
  EXPECT_EQ(end.components, 1u);
  const auto& g = engine.overlay().graph();
  for (const auto u : engine.overlay().honest_nodes())
    EXPECT_GT(g.degree(u), 0u) << "node " << u << " left isolated";
}

TEST(ScenarioEngine, ProofOfWorkChargesBothSidesOfTheSoapFight) {
  ScenarioSpec spec;
  spec.seed = 19;
  spec.initial_size = 100;
  spec.degree = 6;
  spec.horizon = 20 * kMinute;
  spec.churn.joins_per_hour = 60.0;  // honest joins pay PoW too
  AttackPhase soap;
  soap.kind = AttackKind::SoapInjection;
  soap.start = 0;
  soap.stop = spec.horizon;
  spec.attacks.push_back(soap);
  spec.defense.pow_base_cost = 1.0;
  spec.metrics.period = 5 * kMinute;
  MemorySink sink;
  CampaignEngine engine(spec, sink);
  engine.run();
  EXPECT_GT(engine.overlay().sybil_work_spent(), 0.0);
  EXPECT_GT(engine.overlay().honest_work_spent(), 0.0);
}

// ====================================================================
// Serialization and sinks
// ====================================================================

TEST(ScenarioSnapshot, SerializationCoversEveryField) {
  MetricsSnapshot a;
  a.time = 123;
  a.honest_alive = 5;
  a.degree_histogram = {0, 2, 3};
  MetricsSnapshot b = a;
  EXPECT_EQ(codec::encode(a), codec::encode(b));
  b.degree_histogram[1] = 1;  // histogram-only change must show up
  EXPECT_NE(codec::encode(a), codec::encode(b));
  MetricsSnapshot c = a;
  c.largest_fraction = 0.5;  // double fields are hashed bit-exactly
  EXPECT_NE(codec::encode(a), codec::encode(c));
}

TEST(ScenarioSnapshot, FanoutDeliversToEverySink) {
  MemorySink memory;
  HashSink hash;
  FanoutSink fanout({&memory, &hash});
  MetricsSnapshot s;
  s.time = 5;
  fanout.on_snapshot(s);
  EXPECT_EQ(memory.snapshots().size(), 1u);
  EXPECT_EQ(hash.count(), 1u);
}

TEST(ScenarioEngine, RunsExactlyOnce) {
  MemorySink sink;
  CampaignEngine engine(busy_spec(23), sink);
  engine.run();
  EXPECT_THROW(engine.run(), ContractViolation);
}

// ====================================================================
// Adaptive attacker differentials
// ====================================================================

// A campaign with churn plus one takedown window of the given kind;
// adaptive phases default to refresh_period = 0 (the live re-rank
// limit) unless overridden by the caller.
ScenarioSpec ranked_takedown_spec(std::uint64_t seed, AttackKind kind,
                                  RankMetric rank) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.initial_size = 250;
  spec.degree = 6;
  spec.horizon = 30 * kMinute;
  spec.churn.joins_per_hour = 120.0;
  spec.churn.leaves_per_hour = 120.0;
  AttackPhase takedown;
  takedown.kind = kind;
  takedown.rank = rank;
  takedown.start = 5 * kMinute;
  takedown.stop = 25 * kMinute;
  takedown.takedowns_per_hour = 180.0;
  takedown.betweenness_pivots = 24;
  spec.attacks.push_back(takedown);
  spec.metrics.period = 5 * kMinute;
  return spec;
}

struct RecordedRun {
  CampaignTrace trace;
  std::string snapshot_digest;
};

RecordedRun record_run(const ScenarioSpec& spec) {
  RecordedRun run;
  HashSink hash;
  FanoutSink fanout({&run.trace, &hash});
  CampaignEngine(spec, fanout, &run.trace).run();
  run.snapshot_digest = hash.hex_digest();
  return run;
}

std::size_t count_kind(const CampaignTrace& trace, TraceEventKind kind) {
  std::size_t n = 0;
  for (const CampaignEvent& e : trace.events())
    if (e.kind == kind) ++n;
  return n;
}

TEST(AdaptiveAttacker, LiveRerankIsByteIdenticalToCentralityTakedown) {
  // refresh cadence -> infinity (period 0): the adaptive attacker
  // re-surveys before every strike, which must reproduce the static
  // CentralityTakedown event stream and snapshot stream byte-for-byte.
  const RecordedRun centrality = record_run(ranked_takedown_spec(
      71, AttackKind::CentralityTakedown, RankMetric::SampledBetweenness));
  const RecordedRun adaptive = record_run(ranked_takedown_spec(
      71, AttackKind::AdaptiveTakedown, RankMetric::SampledBetweenness));
  EXPECT_EQ(adaptive.snapshot_digest, centrality.snapshot_digest);
  EXPECT_EQ(adaptive.trace.fingerprint(), centrality.trace.fingerprint());
  EXPECT_EQ(adaptive.trace.events(), centrality.trace.events());
  EXPECT_GT(count_kind(adaptive.trace, TraceEventKind::Takedown), 0u);
}

TEST(AdaptiveAttacker, LiveDegreeRerankIsByteIdenticalToTargetedTakedown) {
  const RecordedRun targeted = record_run(ranked_takedown_spec(
      73, AttackKind::TargetedTakedown, RankMetric::Degree));
  const RecordedRun adaptive = record_run(ranked_takedown_spec(
      73, AttackKind::AdaptiveTakedown, RankMetric::Degree));
  EXPECT_EQ(adaptive.snapshot_digest, targeted.snapshot_digest);
  EXPECT_EQ(adaptive.trace.events(), targeted.trace.events());
}

TEST(AdaptiveAttacker, RefreshCadenceIsARealKnob) {
  // Rank-once (kNeverRefresh) works a stale hit list: a different
  // campaign than the live re-ranker, with no refresh events. A finite
  // cadence records its scheduled re-surveys in the trace.
  ScenarioSpec live = ranked_takedown_spec(
      79, AttackKind::AdaptiveTakedown, RankMetric::SampledBetweenness);
  ScenarioSpec once = live;
  once.attacks[0].refresh_period = kNeverRefresh;
  ScenarioSpec cadence = live;
  cadence.attacks[0].refresh_period = 4 * kMinute;

  const RecordedRun live_run = record_run(live);
  const RecordedRun once_run = record_run(once);
  const RecordedRun cadence_run = record_run(cadence);
  EXPECT_NE(once_run.snapshot_digest, live_run.snapshot_digest);
  EXPECT_EQ(count_kind(live_run.trace, TraceEventKind::AdaptiveRefresh),
            0u);
  EXPECT_EQ(count_kind(once_run.trace, TraceEventKind::AdaptiveRefresh),
            0u);
  // [5, 25) min window at a 4-minute cadence: refreshes at 5, 9, 13,
  // 17, 21 minutes.
  EXPECT_EQ(count_kind(cadence_run.trace, TraceEventKind::AdaptiveRefresh),
            5u);
  for (const CampaignEvent& e : cadence_run.trace.events()) {
    if (e.kind == TraceEventKind::AdaptiveRefresh) {
      EXPECT_EQ((e.at - 5 * kMinute) % (4 * kMinute), 0u);
    }
  }
}

// The engine emits Takedown before it removes the victim, so a sink that
// holds the engine's overlay sees the graph the victim was picked from.
// It checks every takedown against a plain scan: the victim is the
// lowest-id honest alive bot of maximum degree.
class TargetedVictimOracle final : public TraceSink {
 public:
  void watch(const core::OverlayNetwork& net) { net_ = &net; }
  void on_begin(const ScenarioSpec&,
                const std::vector<graph::NodeId>&) override {}
  void on_event(const CampaignEvent& e) override {
    if (e.kind != TraceEventKind::Takedown) return;
    ++checked_;
    const graph::Graph& g = net_->graph();
    graph::NodeId expected = graph::kInvalidNode;
    for (const graph::NodeId u : net_->honest_nodes())
      if (expected == graph::kInvalidNode || g.degree(u) > g.degree(expected))
        expected = u;
    EXPECT_EQ(e.a, expected) << "takedown at t=" << e.at;
  }
  std::size_t checked() const { return checked_; }

 private:
  const core::OverlayNetwork* net_ = nullptr;
  std::size_t checked_ = 0;
};

// Random campaigns whose only takedowns are targeted: two standalone
// phases, healed or not, and a one-wave plan, next to churn and a SOAP
// phase whose clones hold honest bots' peering slots.
ScenarioSpec random_targeted_spec(Rng& rng) {
  ScenarioSpec spec;
  spec.seed = rng.next_u64();
  spec.initial_size = 2 * rng.uniform_in(30, 120);  // n * k must be even
  spec.degree = rng.uniform_in(3, 8);
  spec.horizon = 40 * kMinute;
  spec.churn.joins_per_hour = static_cast<double>(rng.uniform_in(0, 300));
  spec.churn.leaves_per_hour = static_cast<double>(rng.uniform_in(0, 300));
  spec.churn.heal_on_leave = rng.bernoulli(0.7);
  for (int p = 0; p < 2; ++p) {
    AttackPhase targeted;
    targeted.kind = AttackKind::TargetedTakedown;
    targeted.start = rng.uniform_in(0, 20) * kMinute;
    targeted.stop = targeted.start + rng.uniform_in(5, 20) * kMinute;
    targeted.takedowns_per_hour =
        static_cast<double>(rng.uniform_in(60, 360));
    targeted.heal = rng.bernoulli(0.5);
    spec.attacks.push_back(targeted);
  }
  AttackPhase soap;
  soap.kind = AttackKind::SoapInjection;
  soap.start = rng.uniform_in(0, 10) * kMinute;
  soap.stop = spec.horizon;
  soap.soap_rounds_per_tick = rng.uniform_in(1, 3);
  spec.attacks.push_back(soap);
  AttackWave wave;
  wave.attack.kind = AttackKind::TargetedTakedown;
  wave.attack.takedowns_per_hour = 240.0;
  wave.duration = 5 * kMinute;
  spec.waves.start = 30 * kMinute;
  spec.waves.waves.push_back(wave);
  if (rng.bernoulli(0.5)) spec.defense.rate_limit_per_round = 2;
  spec.metrics.period = 10 * kMinute;
  return spec;
}

TEST(AdaptiveAttacker, TargetedVictimsMatchAPlainDegreeScan) {
  Rng rng(0x0ac1e);
  std::size_t checked = 0;
  std::uint64_t clones = 0;
  for (int round = 0; round < 12; ++round) {
    const ScenarioSpec spec = random_targeted_spec(rng);
    TargetedVictimOracle oracle;
    HashSink snapshots;
    CampaignEngine engine(spec, snapshots, &oracle);
    oracle.watch(engine.overlay());
    const MetricsSnapshot end = engine.run();
    EXPECT_EQ(oracle.checked(), end.takedowns) << "spec seed " << spec.seed;
    checked += oracle.checked();
    clones += end.soap_clones;
  }
  EXPECT_GT(checked, 100u);
  EXPECT_GT(clones, 0u);
}

// ====================================================================
// Stream pins: ranked takedowns and SOAP
// ====================================================================

// Snapshot digest and event-log fingerprint of small campaigns for every
// victim-ranking kind and for SOAP under a rate limit. No golden reaches
// these paths, so these constants are what proves a refactor of the
// engine's victim selection or event scheduling left the draws, the
// event order and the bytes alone.
void expect_pinned(const ScenarioSpec& spec, const char* snapshots,
                   const char* events) {
  const RecordedRun run = record_run(spec);
  EXPECT_EQ(run.snapshot_digest, snapshots);
  EXPECT_EQ(run.trace.fingerprint(), events);
}

TEST(StreamPins, CentralityTakedownHealed) {
  expect_pinned(ranked_takedown_spec(101, AttackKind::CentralityTakedown,
                                     RankMetric::SampledBetweenness),
                "551c0edaaf76ceece35702cf97d7833267f23feb85d35b57fb53a1229b769dfc",
                "4f51a10da96f9a61fca4cddb0f068f1ceefa4ff2fb2e8e16b01508fb0dffa8ca");
}

TEST(StreamPins, CentralityTakedownUnhealed) {
  ScenarioSpec spec = ranked_takedown_spec(
      103, AttackKind::CentralityTakedown, RankMetric::SampledBetweenness);
  spec.attacks[0].heal = false;
  expect_pinned(spec,
                "d321f57e4b3a78027ec6d28fc895b3884968ff7ba2065b5c601be471932faef5",
                "e14a56c664c830266cfd734dced012f54e8b8f7ea849295fb6290b9722b5103a");
}

TEST(StreamPins, TargetedTakedownUnhealed) {
  ScenarioSpec spec = ranked_takedown_spec(
      107, AttackKind::TargetedTakedown, RankMetric::Degree);
  spec.attacks[0].heal = false;
  expect_pinned(spec,
                "413a5f8ae354bc5b47398615cce9d07dcc4a36ae8d59f5106793c41c59a8b12e",
                "76d33caf244461ad602f8264b7afc97c5a1a5a35ad841772a4c6b6946bab8c91");
}

TEST(StreamPins, AdaptiveDegreeOnACadence) {
  ScenarioSpec spec = ranked_takedown_spec(
      109, AttackKind::AdaptiveTakedown, RankMetric::Degree);
  spec.attacks[0].refresh_period = 3 * kMinute;
  expect_pinned(spec,
                "f6b9b83d70427b67ee4845f7e8f7639e6776454b0f86a36523c6d3c6aa758b95",
                "7169fe8edd53395ce2c9f69279922c2288e0f0d05a8507fd240b34c4c545672d");
}

TEST(StreamPins, AdaptiveBetweennessRankedOnce) {
  ScenarioSpec spec = ranked_takedown_spec(
      113, AttackKind::AdaptiveTakedown, RankMetric::SampledBetweenness);
  spec.attacks[0].refresh_period = kNeverRefresh;
  expect_pinned(spec,
                "f8f1a088240f7ca1e79386c8eda9432426eb5fc4c57f5bb15db970fe62eee276",
                "2a39cfc9a977dbfa94f14ad3299f27ac1271560fe36351a2b451c556b8f4f1df");
}

TEST(StreamPins, SoapUnderARateLimit) {
  // Churn, a random-takedown window and a SOAP phase under a per-round
  // rate limit with charged healing: the join, leave, takedown, SOAP and
  // defense-round chains all run, and both peering paths mend evictions.
  ScenarioSpec spec = ranked_takedown_spec(
      127, AttackKind::RandomTakedown, RankMetric::Degree);
  AttackPhase soap;
  soap.kind = AttackKind::SoapInjection;
  soap.start = 10 * kMinute;
  soap.stop = 28 * kMinute;
  soap.soap_tick = kMinute;
  soap.soap_rounds_per_tick = 2;
  spec.attacks.push_back(soap);
  spec.defense.rate_limit_per_round = 2;
  spec.defense.round = kMinute;
  spec.defense.charge_healing = true;
  expect_pinned(spec,
                "780c608da238ab71b03be6ed78ccf9a98b8ea4bf526eb3ef8aa81d030e7f0835",
                "bf1cc0acec05ffc570e75c5efe2fab270afd61c9ecee17206977a2fb1158fbc1");
}

// ====================================================================
// Multi-wave plans
// ====================================================================

TEST(WavePlan, OneWavePlanMatchesTheSinglePhaseRun) {
  // The same attack expressed as a standalone phase and as a one-wave
  // plan must produce the same campaign: identical events (modulo the
  // wave's boundary marker) and identical snapshots (modulo the wave
  // attribution field, which only the plan run carries).
  ScenarioSpec single = ranked_takedown_spec(
      83, AttackKind::RandomTakedown, RankMetric::Degree);
  ScenarioSpec plan = single;
  plan.attacks.clear();
  AttackWave wave;
  wave.attack = single.attacks[0];
  wave.duration = single.attacks[0].stop - single.attacks[0].start;
  plan.waves.start = single.attacks[0].start;
  plan.waves.waves.push_back(wave);

  const RecordedRun a = record_run(single);
  const RecordedRun b = record_run(plan);

  std::vector<CampaignEvent> b_events;
  std::size_t wave_starts = 0;
  for (const CampaignEvent& e : b.trace.events()) {
    if (e.kind == TraceEventKind::WaveStart) {
      ++wave_starts;
      EXPECT_EQ(e.at, plan.waves.start);
      continue;
    }
    b_events.push_back(e);
  }
  EXPECT_EQ(wave_starts, 1u);
  EXPECT_EQ(b_events, a.trace.events());

  ASSERT_EQ(a.trace.snapshots().size(), b.trace.snapshots().size());
  std::uint64_t final_attributed = 0;
  for (std::size_t i = 0; i < b.trace.snapshots().size(); ++i) {
    MetricsSnapshot stripped = b.trace.snapshots()[i];
    ASSERT_EQ(stripped.wave_takedowns.size(), 1u);
    final_attributed = stripped.wave_takedowns[0];
    EXPECT_EQ(final_attributed, stripped.takedowns)
        << "every victim belongs to the only wave";
    stripped.wave_takedowns.clear();
    EXPECT_EQ(codec::encode(stripped), codec::encode(a.trace.snapshots()[i]))
        << "snapshot " << i;
  }
  EXPECT_GT(final_attributed, 0u);
}

TEST(WavePlan, QuietPeriodsSeparateWavesAndAttributeVictims) {
  ScenarioSpec spec;
  spec.seed = 89;
  spec.initial_size = 300;
  spec.degree = 6;
  spec.horizon = kHour;
  spec.churn.joins_per_hour = 60.0;
  spec.churn.leaves_per_hour = 60.0;
  AttackWave wave;
  wave.attack.kind = AttackKind::AdaptiveTakedown;
  wave.attack.rank = RankMetric::Degree;
  wave.attack.takedowns_per_hour = 360.0;
  wave.duration = 10 * kMinute;
  wave.quiet_after = 5 * kMinute;
  spec.waves.start = 5 * kMinute;
  spec.waves.waves.assign(3, wave);
  spec.metrics.period = 5 * kMinute;

  const RecordedRun run = record_run(spec);
  // Waves at [5,15), [20,30), [35,45) minutes.
  const SimTime starts[] = {5 * kMinute, 20 * kMinute, 35 * kMinute};
  std::size_t seen_starts = 0;
  std::uint64_t takedowns = 0;
  for (const CampaignEvent& e : run.trace.events()) {
    if (e.kind == TraceEventKind::WaveStart) {
      ASSERT_LT(seen_starts, 3u);
      EXPECT_EQ(e.a, seen_starts);
      EXPECT_EQ(e.at, starts[seen_starts]);
      ++seen_starts;
    }
    if (e.kind == TraceEventKind::Takedown) {
      ++takedowns;
      bool in_some_wave = false;
      for (const SimTime s : starts)
        in_some_wave |= e.at >= s && e.at < s + wave.duration;
      EXPECT_TRUE(in_some_wave)
          << "takedown at t=" << e.at << " outside every wave window";
    }
  }
  EXPECT_EQ(seen_starts, 3u);
  EXPECT_GT(takedowns, 0u);

  const MetricsSnapshot& end = run.trace.snapshots().back();
  ASSERT_EQ(end.wave_takedowns.size(), 3u);
  std::uint64_t attributed = 0;
  for (const std::uint64_t w : end.wave_takedowns) {
    EXPECT_GT(w, 0u) << "every wave should land victims";
    attributed += w;
  }
  EXPECT_EQ(attributed, takedowns);
  // Attribution is cumulative and monotone across the stream.
  for (std::size_t i = 1; i < run.trace.snapshots().size(); ++i) {
    const auto& prev = run.trace.snapshots()[i - 1].wave_takedowns;
    const auto& cur = run.trace.snapshots()[i].wave_takedowns;
    for (std::size_t w = 0; w < cur.size(); ++w)
      EXPECT_GE(cur[w], prev[w]);
  }
}

// ====================================================================
// Session-model churn
// ====================================================================

ScenarioSpec session_spec(std::uint64_t seed, SessionModel model) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.initial_size = 250;
  spec.degree = 6;
  spec.horizon = kHour;
  spec.churn.joins_per_hour = 120.0;
  spec.churn.session_leaves = true;
  spec.churn.session.model = model;
  spec.churn.session.mean_hours = 0.6;
  spec.churn.session.pareto_alpha = 1.5;
  spec.metrics.period = 10 * kMinute;
  return spec;
}

TEST(SessionChurn, ReplaysByteIdenticallyAndTheModelMatters) {
  HashSink first;
  CampaignEngine(session_spec(5, SessionModel::Pareto), first).run();
  HashSink second;
  CampaignEngine(session_spec(5, SessionModel::Pareto), second).run();
  EXPECT_EQ(first.hex_digest(), second.hex_digest());

  HashSink lognormal;
  CampaignEngine(session_spec(5, SessionModel::LogNormal), lognormal)
      .run();
  EXPECT_NE(first.hex_digest(), lognormal.hex_digest())
      << "swapping the session model must change the campaign";
}

TEST(SessionChurn, PooledLeaveRateIsIgnoredUnderSessions) {
  ScenarioSpec a = session_spec(7, SessionModel::Exponential);
  ScenarioSpec b = a;
  b.churn.leaves_per_hour = 480.0;  // must be dead config
  HashSink ha;
  CampaignEngine(a, ha).run();
  HashSink hb;
  CampaignEngine(b, hb).run();
  EXPECT_EQ(ha.hex_digest(), hb.hex_digest());
}

TEST(SessionChurn, SessionsDriveLeavesAndAttacksCutThemShort) {
  ScenarioSpec spec = session_spec(11, SessionModel::Exponential);
  AttackPhase takedown;
  takedown.kind = AttackKind::RandomTakedown;
  takedown.start = 0;
  takedown.stop = spec.horizon;
  takedown.takedowns_per_hour = 120.0;
  spec.attacks.push_back(takedown);

  const RecordedRun run = record_run(spec);
  const auto& end = run.trace.snapshots().back();
  EXPECT_GT(end.leaves, 0u) << "sessions should expire within the hour";
  EXPECT_GT(end.takedowns, 0u);
  // A bot that died cannot leave again: alive count reconciles exactly,
  // which the lifetimes() derivation enforces internally too.
  EXPECT_EQ(end.honest_alive,
            spec.initial_size + end.joins - end.leaves - end.takedowns);
  const auto lifetimes = run.trace.lifetimes();
  EXPECT_EQ(lifetimes.size(), spec.initial_size + end.joins);
}

// ====================================================================
// Defense-consistent healing
// ====================================================================

TEST(ChargedHealing, DisabledIsTheDefaultAndReproducesThePinnedGolden) {
  // The exact pinned 10k campaign of bench/bench_report.cpp (sparse
  // cadence), with every new feature at its default: the stream
  // fingerprint must equal the committed golden byte-for-byte
  // (tests/goldens/campaign_10k.txt — regenerate only with an intended,
  // explained behavior change). Note the caveat in tests/goldens/
  // README.md: the value is pinned to IEEE-754 + the libm of the CI
  // build environment.
  ScenarioSpec spec;
  spec.seed = 0xbe7c;
  spec.initial_size = 10'000;
  spec.degree = 10;
  spec.horizon = kHour;
  spec.churn.joins_per_hour = 500.0;
  spec.churn.leaves_per_hour = 500.0;
  AttackPhase takedown;
  takedown.kind = AttackKind::RandomTakedown;
  takedown.start = 15 * kMinute;
  takedown.stop = 45 * kMinute;
  takedown.takedowns_per_hour = 600.0;
  spec.attacks.push_back(takedown);
  spec.metrics.period = 5 * kMinute;
  ASSERT_FALSE(spec.defense.charge_healing);

  HashSink sink;
  CampaignEngine(spec, sink).run();
  EXPECT_EQ(
      sink.hex_digest(),
      "3fe636c71996590f0da5bfb139272bb7714b4ba198b3fd84a3bf78e0712067ef");
}

ScenarioSpec defended_spec(bool charge_healing) {
  ScenarioSpec spec;
  spec.seed = 97;
  spec.initial_size = 300;
  spec.degree = 6;
  spec.horizon = 30 * kMinute;
  spec.churn.joins_per_hour = 120.0;
  spec.churn.leaves_per_hour = 240.0;
  AttackPhase takedown;
  takedown.kind = AttackKind::RandomTakedown;
  takedown.start = 5 * kMinute;
  takedown.stop = 25 * kMinute;
  takedown.takedowns_per_hour = 240.0;
  spec.attacks.push_back(takedown);
  spec.defense.rate_limit_per_round = 2;
  spec.defense.pow_base_cost = 0.5;
  spec.defense.pow_growth = 1.0;
  spec.defense.charge_healing = charge_healing;
  spec.metrics.period = 5 * kMinute;
  return spec;
}

TEST(ChargedHealing, ShiftsRepairEconomicsUnderActiveDefenses) {
  HashSink uncharged_sink;
  CampaignEngine uncharged(defended_spec(false), uncharged_sink);
  const MetricsSnapshot without = uncharged.run();

  CampaignTrace trace;
  HashSink charged_sink;
  FanoutSink fanout({&trace, &charged_sink});
  CampaignEngine charged(defended_spec(true), fanout, &trace);
  const MetricsSnapshot with = charged.run();

  EXPECT_NE(uncharged_sink.hex_digest(), charged_sink.hex_digest());
  // Uncharged healing never sends requests; charged healing does, and
  // the active rate limit denies some of them.
  EXPECT_EQ(uncharged.ddsr_stats().heal_requests_denied, 0u);
  EXPECT_GT(charged.ddsr_stats().heal_requests_denied, 0u);
  EXPECT_GT(count_kind(trace, TraceEventKind::HealPeering), 0u);
  // The measurable shift of the ablation: policed repair creates fewer
  // edges, so the self-healing traffic bill drops...
  EXPECT_LT(with.repair_messages, without.repair_messages);
  // ...while honest bots now pay proof-of-work for their own healing.
  EXPECT_GT(charged.overlay().honest_work_spent(),
            uncharged.overlay().honest_work_spent());
}

// ====================================================================
// Settled connectivity: every snapshot against the sweep
// ====================================================================

/// Holds the engine it listens to and compares each snapshot's
/// structural fields with sweep_structural() of the overlay at that
/// moment: the tracker settles the window's deletions in its fill, so a
/// window of joins, leaves, takedowns, refills and SOAP rounds meets the
/// oracle once, at its end.
class SweepCheckSink final : public SnapshotSink {
 public:
  void listen_to(const CampaignEngine& engine) { engine_ = &engine; }
  std::size_t snapshots() const { return snapshots_; }
  std::uint64_t max_sybils() const { return max_sybils_; }

  void on_snapshot(const MetricsSnapshot& s) override {
    ++snapshots_;
    max_sybils_ = std::max(max_sybils_, s.sybil_alive);
    const MetricsSnapshot sweep = sweep_structural(
        engine_->overlay(), engine_->spec().metrics.degree_histogram);
    MetricsSnapshot structural;
    structural.honest_alive = s.honest_alive;
    structural.sybil_alive = s.sybil_alive;
    structural.honest_edges = s.honest_edges;
    structural.components = s.components;
    structural.largest_component = s.largest_component;
    structural.largest_fraction = s.largest_fraction;
    structural.average_degree = s.average_degree;
    structural.degree_histogram = s.degree_histogram;
    EXPECT_EQ(codec::encode(structural), codec::encode(sweep))
        << "seed " << engine_->spec().seed << " t=" << s.time
        << ": tracker " << s.components << " components, sweep "
        << sweep.components;
  }

 private:
  const CampaignEngine* engine_ = nullptr;
  std::size_t snapshots_ = 0;
  std::uint64_t max_sybils_ = 0;
};

/// A small campaign with every kind of mutation: pooled or session
/// churn (healed or not), a SOAP phase, and two or three takedown waves
/// under a rate limit, with charged healing on half the seeds.
ScenarioSpec random_spec(std::uint64_t seed) {
  Rng rng(seed);
  ScenarioSpec spec;
  spec.seed = seed;
  spec.initial_size = 150 + 2 * rng.uniform(75);  // n * degree even
  spec.degree = 4 + rng.uniform(5);
  spec.horizon = 40 * kMinute;
  spec.churn.joins_per_hour = static_cast<double>(60 + rng.uniform(240));
  spec.churn.leaves_per_hour = static_cast<double>(60 + rng.uniform(240));
  spec.churn.heal_on_leave = rng.uniform(4) != 0;
  spec.churn.session_leaves = rng.uniform(2) == 0;
  spec.churn.session.model = static_cast<SessionModel>(rng.uniform(3));
  spec.churn.session.mean_hours = 0.5;
  AttackPhase soap;
  soap.kind = AttackKind::SoapInjection;
  soap.start = 10 * kMinute;
  soap.stop = 25 * kMinute;
  soap.soap_rounds_per_tick = 1 + rng.uniform(2);
  spec.attacks.push_back(soap);
  AttackWave wave;
  wave.attack.kind = rng.uniform(2) == 0 ? AttackKind::RandomTakedown
                                         : AttackKind::AdaptiveTakedown;
  wave.attack.rank = RankMetric::Degree;
  wave.attack.refresh_period = rng.uniform(2) * 5 * kMinute;
  wave.attack.takedowns_per_hour = static_cast<double>(60 + rng.uniform(240));
  wave.attack.heal = rng.uniform(3) != 0;
  wave.duration = 8 * kMinute;
  wave.quiet_after = 3 * kMinute;
  spec.waves.start = 2 * kMinute;
  spec.waves.waves.assign(2 + rng.uniform(2), wave);
  spec.defense.rate_limit_per_round = 2 + rng.uniform(3);
  spec.defense.charge_healing = rng.uniform(2) == 0;
  spec.metrics.period = (2 + rng.uniform(8)) * kMinute;
  spec.metrics.degree_histogram = rng.uniform(2) == 0;
  return spec;
}

TEST(SettledConnectivity, EverySnapshotMatchesTheSweepOnRandomCampaigns) {
  std::size_t snapshots = 0;
  std::size_t events = 0;
  std::uint64_t splits = 0;
  std::uint64_t sybils = 0;
  for (std::uint64_t seed = 1; seed <= 12 && !HasFailure(); ++seed) {
    SweepCheckSink sink;
    CampaignEngine engine(random_spec(seed), sink);
    sink.listen_to(engine);
    engine.run();
    snapshots += sink.snapshots();
    events += engine.events_executed();
    splits += engine.tracker().connectivity().splits();
    sybils = std::max(sybils, sink.max_sybils());
  }
  // The windows are wide, the settles split components, and SOAP clones
  // were alive at some snapshot.
  EXPECT_GT(events, 10 * snapshots);
  EXPECT_GT(splits, 0u);
  EXPECT_GT(sybils, 0u);
}

}  // namespace
}  // namespace onion::scenario

// Campaign→telemetry replay tests: the event tap records the campaign
// faithfully and passively (snapshot fingerprints with and without a
// tap are identical), replay synthesis is byte-deterministic, the ROC
// sweep reproduces its fingerprint at any thread count, and — the
// paper's claim — replayed legacy families light up their dedicated
// detectors while the replayed OnionBot population stays dark except to
// the Tor flagger, which takes the benign Tor users down with it.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "detection/dga_detector.hpp"
#include "detection/fastflux_detector.hpp"
#include "detection/flow_detector.hpp"
#include "detection/p2p_detector.hpp"
#include "detection/replay.hpp"
#include "detection/roc.hpp"
#include "detection/tor_flagger.hpp"
#include "scenario/engine.hpp"

namespace onion::detection {
namespace {

using scenario::AttackKind;
using scenario::AttackPhase;
using scenario::CampaignEngine;
using scenario::CampaignTrace;
using scenario::FanoutSink;
using scenario::HashSink;
using scenario::ScenarioSpec;
using scenario::TraceEventKind;

// A campaign with every event kind in it: churn, a takedown wave, SOAP.
// Two simulated hours, so even the 10-minute-cadence emitters produce
// enough telemetry per host to clear the detectors' minimum volumes.
ScenarioSpec busy_spec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.initial_size = 200;
  spec.degree = 6;
  spec.horizon = 2 * kHour;
  spec.churn.joins_per_hour = 60.0;
  spec.churn.leaves_per_hour = 60.0;
  AttackPhase takedown;
  takedown.kind = AttackKind::RandomTakedown;
  takedown.start = 15 * kMinute;
  takedown.stop = kHour;
  takedown.takedowns_per_hour = 60.0;
  spec.attacks.push_back(takedown);
  AttackPhase soap;
  soap.kind = AttackKind::SoapInjection;
  soap.start = kHour;
  soap.stop = 90 * kMinute;
  spec.attacks.push_back(soap);
  spec.metrics.period = 5 * kMinute;
  return spec;
}

CampaignTrace record(const ScenarioSpec& spec) {
  CampaignTrace campaign;
  HashSink hash;
  FanoutSink fanout({&campaign, &hash});
  CampaignEngine(spec, fanout, &campaign).run();
  return campaign;
}

std::size_t count_kind(const CampaignTrace& campaign, TraceEventKind kind) {
  return static_cast<std::size_t>(std::count_if(
      campaign.events().begin(), campaign.events().end(),
      [kind](const scenario::CampaignEvent& e) { return e.kind == kind; }));
}

// ====================================================================
// The event tap
// ====================================================================

TEST(CampaignTrace, TapIsPassive) {
  // Snapshot stream with a tap attached == without one.
  HashSink untapped;
  CampaignEngine(busy_spec(3), untapped).run();

  CampaignTrace campaign;
  HashSink tapped;
  CampaignEngine(busy_spec(3), tapped, &campaign).run();

  EXPECT_EQ(untapped.hex_digest(), tapped.hex_digest());
  EXPECT_FALSE(campaign.events().empty());
}

TEST(CampaignTrace, EventCountsMatchTheCounters) {
  const ScenarioSpec spec = busy_spec(7);
  CampaignTrace campaign;
  HashSink hash;
  FanoutSink fanout({&campaign, &hash});
  CampaignEngine engine(spec, fanout, &campaign);
  engine.run();

  EXPECT_TRUE(campaign.began());
  EXPECT_EQ(campaign.initial_nodes().size(), spec.initial_size);
  EXPECT_EQ(count_kind(campaign, TraceEventKind::Join),
            engine.counters().joins);
  EXPECT_EQ(count_kind(campaign, TraceEventKind::Leave),
            engine.counters().leaves);
  EXPECT_EQ(count_kind(campaign, TraceEventKind::Takedown),
            engine.counters().takedowns);
  // The SOAP phase fired: a capture plus at least one round.
  EXPECT_EQ(count_kind(campaign, TraceEventKind::SoapCapture), 1u);
  EXPECT_GT(count_kind(campaign, TraceEventKind::SoapRound), 0u);
  // Every join bootstraps through peering requests.
  EXPECT_GE(count_kind(campaign, TraceEventKind::Peering),
            engine.counters().joins);
  // Events arrive in simulator order.
  for (std::size_t i = 1; i < campaign.events().size(); ++i)
    EXPECT_LE(campaign.events()[i - 1].at, campaign.events()[i].at);
}

TEST(CampaignTrace, LifetimesReplayTheAliveCountExactly) {
  // Differential check against the engine's own structural telemetry:
  // replaying the event stream up to each snapshot's recorded position
  // must reproduce honest_alive exactly.
  const ScenarioSpec spec = busy_spec(11);
  CampaignTrace campaign;
  FanoutSink fanout({&campaign});
  CampaignEngine(spec, fanout, &campaign).run();

  ASSERT_FALSE(campaign.snapshots().empty());
  for (std::size_t i = 0; i < campaign.snapshots().size(); ++i) {
    std::int64_t alive =
        static_cast<std::int64_t>(campaign.initial_nodes().size());
    const std::size_t upto = campaign.events_before(i);
    for (std::size_t e = 0; e < upto; ++e) {
      const auto kind = campaign.events()[e].kind;
      if (kind == TraceEventKind::Join) ++alive;
      if (kind == TraceEventKind::Leave ||
          kind == TraceEventKind::Takedown)
        --alive;
    }
    EXPECT_EQ(static_cast<std::uint64_t>(alive),
              campaign.snapshots()[i].honest_alive)
        << "snapshot " << i;
  }
}

TEST(CampaignTrace, LifetimesAreWellFormed) {
  const ScenarioSpec spec = busy_spec(13);
  const CampaignTrace campaign = record(spec);
  const auto lifetimes = campaign.lifetimes();
  // One lifetime per initial node plus one per join, unique and sorted.
  EXPECT_EQ(lifetimes.size(),
            spec.initial_size + count_kind(campaign, TraceEventKind::Join));
  std::set<graph::NodeId> seen;
  for (const auto& life : lifetimes) {
    EXPECT_TRUE(seen.insert(life.node).second);
    EXPECT_LE(life.birth, life.death);
    EXPECT_LE(life.death, spec.horizon);
  }
  // Deaths recorded in the event stream show up as truncated lifetimes.
  const std::size_t dead = count_kind(campaign, TraceEventKind::Leave) +
                           count_kind(campaign, TraceEventKind::Takedown);
  const std::size_t truncated = static_cast<std::size_t>(
      std::count_if(lifetimes.begin(), lifetimes.end(), [&](const auto& l) {
        return l.death < spec.horizon;
      }));
  EXPECT_EQ(truncated, dead);
}

TEST(CampaignTrace, FingerprintIsSeedSensitive) {
  EXPECT_EQ(record(busy_spec(5)).fingerprint(),
            record(busy_spec(5)).fingerprint());
  EXPECT_NE(record(busy_spec(5)).fingerprint(),
            record(busy_spec(6)).fingerprint());
}

// ====================================================================
// Adaptive multi-wave campaigns through the tap and the replayer
// ====================================================================

// Every *new* event kind in one campaign: a two-wave adaptive plan with
// scheduled refreshes, heavy-tailed session churn, and charged healing
// under an active rate limit + PoW.
scenario::ScenarioSpec adaptive_waves_spec(std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.seed = seed;
  spec.initial_size = 200;
  spec.degree = 6;
  spec.horizon = 2 * kHour;
  spec.churn.joins_per_hour = 60.0;
  spec.churn.session_leaves = true;
  spec.churn.session.model = scenario::SessionModel::Pareto;
  spec.churn.session.mean_hours = 1.5;
  spec.churn.session.pareto_alpha = 1.5;
  scenario::AttackWave wave;
  wave.attack.kind = AttackKind::AdaptiveTakedown;
  wave.attack.rank = scenario::RankMetric::SampledBetweenness;
  wave.attack.refresh_period = 5 * kMinute;
  wave.attack.betweenness_pivots = 16;
  wave.attack.takedowns_per_hour = 120.0;
  wave.duration = 20 * kMinute;
  wave.quiet_after = 10 * kMinute;
  spec.waves.start = 10 * kMinute;
  spec.waves.waves.assign(2, wave);
  spec.defense.rate_limit_per_round = 3;
  spec.defense.pow_base_cost = 0.25;
  spec.defense.pow_growth = 1.0;
  spec.defense.charge_healing = true;
  spec.metrics.period = 10 * kMinute;
  return spec;
}

TEST(AdaptiveWaveTrace, TapStaysPassiveOnAdaptiveWaveCampaigns) {
  HashSink untapped;
  CampaignEngine(adaptive_waves_spec(51), untapped).run();

  CampaignTrace campaign;
  HashSink tapped;
  FanoutSink fanout({&campaign, &tapped});
  CampaignEngine(adaptive_waves_spec(51), fanout, &campaign).run();

  EXPECT_EQ(untapped.hex_digest(), tapped.hex_digest());
  EXPECT_GT(count_kind(campaign, TraceEventKind::HealPeering), 0u);
}

TEST(AdaptiveWaveTrace, NewEventKindsArriveInSimulatorOrder) {
  const scenario::ScenarioSpec spec = adaptive_waves_spec(53);
  const CampaignTrace campaign = record(spec);

  // Both waves open on schedule; each runs its four scheduled refreshes
  // (20-minute window at a 5-minute cadence); charged healing fires.
  EXPECT_EQ(count_kind(campaign, TraceEventKind::WaveStart), 2u);
  EXPECT_EQ(count_kind(campaign, TraceEventKind::AdaptiveRefresh), 8u);
  EXPECT_GT(count_kind(campaign, TraceEventKind::HealPeering), 0u);
  EXPECT_GT(count_kind(campaign, TraceEventKind::Takedown), 0u);
  for (std::size_t i = 1; i < campaign.events().size(); ++i)
    EXPECT_LE(campaign.events()[i - 1].at, campaign.events()[i].at);

  // The new kinds carry no membership effect: lifetimes stay exactly
  // one per initial node plus one per join.
  const auto lifetimes = campaign.lifetimes();
  EXPECT_EQ(lifetimes.size(),
            spec.initial_size + count_kind(campaign, TraceEventKind::Join));
  // Heal requests happen between live bots at their event times.
  for (const scenario::CampaignEvent& e : campaign.events()) {
    if (e.kind != TraceEventKind::HealPeering) continue;
    EXPECT_NE(e.a, e.b);
    EXPECT_LE(e.at, spec.horizon);
  }
}

TEST(AdaptiveWaveTrace, ReplayOfAdaptiveWaveTraceIsByteDeterministic) {
  const CampaignTrace campaign = record(adaptive_waves_spec(57));
  ReplayConfig rc;
  rc.seed = 3;
  rc.benign_web = 40;
  rc.benign_tor = 10;
  const ReplayResult a = replay_trace(campaign, rc);
  const ReplayResult b = replay_trace(campaign, rc);
  EXPECT_EQ(serialize(a.trace), serialize(b.trace));
  EXPECT_EQ(fingerprint(a.trace), fingerprint(b.trace));

  // Charged healing surfaces as extra guard cells: replaying the same
  // campaign with the HealPeering events stripped must change the
  // synthesized telemetry.
  CampaignTrace stripped;
  stripped.on_begin(campaign.spec(), campaign.initial_nodes());
  for (const scenario::CampaignEvent& e : campaign.events())
    if (e.kind != TraceEventKind::HealPeering) stripped.on_event(e);
  const ReplayResult without = replay_trace(stripped, rc);
  EXPECT_LT(without.trace.flows.size(), a.trace.flows.size());
}

// ====================================================================
// Replay determinism
// ====================================================================

ReplayConfig mixed_config(std::uint64_t seed) {
  ReplayConfig rc;
  rc.seed = seed;
  rc.benign_web = 60;
  rc.benign_tor = 15;
  rc.centralized_bots = 15;
  rc.dga_bots = 15;
  rc.fastflux_bots = 15;
  rc.p2p_bots = 15;
  return rc;
}

TEST(Replay, EqualInputsReplayByteIdentically) {
  const CampaignTrace campaign = record(busy_spec(17));
  const ReplayResult a = replay_trace(campaign, mixed_config(1));
  const ReplayResult b = replay_trace(campaign, mixed_config(1));
  EXPECT_EQ(serialize(a.trace), serialize(b.trace));
  EXPECT_EQ(fingerprint(a.trace), fingerprint(b.trace));
  EXPECT_EQ(a.onion_bots, b.onion_bots);
}

TEST(Replay, DifferentSensorSeedDiverges) {
  const CampaignTrace campaign = record(busy_spec(17));
  EXPECT_NE(fingerprint(replay_trace(campaign, mixed_config(1)).trace),
            fingerprint(replay_trace(campaign, mixed_config(2)).trace));
}

TEST(Replay, DifferentCampaignDiverges) {
  EXPECT_NE(
      fingerprint(replay_trace(record(busy_spec(17)), mixed_config(1)).trace),
      fingerprint(
          replay_trace(record(busy_spec(18)), mixed_config(1)).trace));
}

TEST(Replay, PopulationsArePlumbedIntoGroundTruth) {
  const CampaignTrace campaign = record(busy_spec(19));
  const ReplayResult r = replay_trace(campaign, mixed_config(1));
  EXPECT_EQ(r.onion_bots.size(), campaign.lifetimes().size());
  EXPECT_EQ(r.benign_web_hosts.size(), 60u);
  EXPECT_EQ(r.benign_tor_users.size(), 15u);
  EXPECT_EQ(r.trace.infected.size(),
            r.onion_bots.size() + 15u * 4);
  // infected = union of the family lists, hosts ⊇ infected.
  const std::set<HostId> hosts(r.trace.hosts.begin(), r.trace.hosts.end());
  for (const HostId h : r.trace.infected) EXPECT_TRUE(hosts.count(h) > 0);
  // Dead bots stop emitting: every flow from a takedown victim's host
  // precedes its death (checked via the busiest victim).
  EXPECT_GT(r.trace.flows.size(), 0u);
}

TEST(Replay, ShortWindowDropsNeverObservableBots) {
  // A window cut at half the horizon: joiners born past it produce no
  // telemetry and must not enter the ground truth.
  const CampaignTrace campaign = record(busy_spec(19));
  ReplayConfig rc = mixed_config(1);
  rc.window = campaign.horizon() / 2;
  const ReplayResult r = replay_trace(campaign, rc);
  const auto lifetimes = campaign.lifetimes();
  const std::size_t observable = static_cast<std::size_t>(
      std::count_if(lifetimes.begin(), lifetimes.end(),
                    [&](const auto& l) { return l.birth < rc.window; }));
  EXPECT_EQ(r.onion_bots.size(), observable);
  EXPECT_LT(r.onion_bots.size(), lifetimes.size())
      << "spec should have late joiners";
  // No replayed record postdates the window (+1s browsing-fetch grace).
  for (const FlowRecord& f : r.trace.flows)
    EXPECT_LT(f.at, rc.window + kSecond);
}

TEST(Replay, ExcludingTheCampaignPopulationWorks) {
  const CampaignTrace campaign = record(busy_spec(19));
  ReplayConfig rc = mixed_config(1);
  rc.max_onion_bots = 0;
  const ReplayResult r = replay_trace(campaign, rc);
  EXPECT_TRUE(r.onion_bots.empty());
  EXPECT_EQ(r.trace.infected.size(), 15u * 4);
}

TEST(Replay, DeadBotsGoDark) {
  const ScenarioSpec spec = busy_spec(23);
  const CampaignTrace campaign = record(spec);
  ReplayConfig rc;
  rc.seed = 9;
  rc.benign_web = 0;
  rc.benign_tor = 0;  // isolate the campaign population
  const ReplayResult r = replay_trace(campaign, rc);

  // Map host -> death time via the lifetimes (allocation is node order).
  const auto lifetimes = campaign.lifetimes();
  ASSERT_EQ(lifetimes.size(), r.onion_bots.size());
  std::size_t truncated = 0;
  for (std::size_t i = 0; i < lifetimes.size(); ++i) {
    if (lifetimes[i].death >= spec.horizon) continue;
    ++truncated;
    for (const FlowRecord& f : r.trace.flows) {
      if (f.src != r.onion_bots[i]) continue;
      // The browsing model stamps a page fetch one second after its
      // DNS lookup, so a flow may trail the death by that second.
      EXPECT_LT(f.at, lifetimes[i].death + kSecond)
          << "host " << f.src << " emitted after its death";
    }
  }
  EXPECT_GT(truncated, 0u) << "spec should kill somebody";
}

// ====================================================================
// Detector sanity on replayed traces (the paper's Section II/VI table)
// ====================================================================

TEST(Replay, LegacyFamiliesAreCaughtOnionBotsAreNot) {
  const CampaignTrace campaign = record(busy_spec(29));
  const ReplayResult r = replay_trace(campaign, mixed_config(1));
  const TrafficTrace& trace = r.trace;

  const DetectionResult dga = detect_dga(trace);
  EXPECT_GE(flagged_fraction(dga, r.dga_bots), 0.9);
  EXPECT_DOUBLE_EQ(flagged_fraction(dga, r.onion_bots), 0.0);
  EXPECT_DOUBLE_EQ(flagged_fraction(dga, r.benign_web_hosts), 0.0);

  const DetectionResult flux = detect_fastflux(trace);
  EXPECT_GE(flagged_fraction(flux, r.fastflux_bots), 0.9);
  EXPECT_DOUBLE_EQ(flagged_fraction(flux, r.onion_bots), 0.0);

  const DetectionResult p2p = detect_p2p(trace);
  EXPECT_GE(flagged_fraction(p2p, r.p2p_bots), 0.8);
  EXPECT_DOUBLE_EQ(flagged_fraction(p2p, r.onion_bots), 0.0);

  const DetectionResult beacons = detect_beacons(trace);
  EXPECT_GE(flagged_fraction(beacons, r.centralized_bots), 0.9);
}

TEST(Replay, TorFlaggerTakesTheTorUsersDownWithTheBots) {
  const CampaignTrace campaign = record(busy_spec(31));
  const ReplayResult r = replay_trace(campaign, mixed_config(1));
  const DetectionResult tor = detect_tor_users(r.trace);
  // Every benign Tor user is false-flagged; the campaign population is
  // flagged at a comparable rate (short-lived churn joiners may emit
  // fewer than min_flows cells before the window ends).
  EXPECT_DOUBLE_EQ(flagged_fraction(tor, r.benign_tor_users), 1.0);
  EXPECT_GE(flagged_fraction(tor, r.onion_bots), 0.8);
  // Nobody off Tor is touched.
  EXPECT_DOUBLE_EQ(flagged_fraction(tor, r.benign_web_hosts), 0.0);
  EXPECT_DOUBLE_EQ(flagged_fraction(tor, r.dga_bots), 0.0);
}

TEST(Replay, FlowDetectorCannotSeparateBotsFromTorUsers) {
  const CampaignTrace campaign = record(busy_spec(37));
  const ReplayResult r = replay_trace(campaign, mixed_config(1));
  const DetectionResult beacons = detect_beacons(r.trace);
  const double bot_rate = flagged_fraction(beacons, r.onion_bots);
  const double tor_user_rate =
      flagged_fraction(beacons, r.benign_tor_users);
  // Either blind to both, or it misfires on the benign Tor users too —
  // the indistinguishability claim, now over replayed campaign traffic.
  if (bot_rate > 0.10) {
    EXPECT_GT(tor_user_rate, 0.0);
  } else {
    SUCCEED();
  }
}

// ====================================================================
// The ROC sweep
// ====================================================================

TEST(RocSweep, FingerprintIsThreadCountInvariant) {
  const CampaignTrace campaign = record(busy_spec(41));
  ReplayConfig rc = mixed_config(1);
  rc.benign_web = 30;  // keep the sweep snappy
  const ReplayResult r = replay_trace(campaign, rc);

  RocConfig one;
  one.threads = 1;
  RocConfig many;
  many.threads = 4;
  const RocReport serial = RocSweep(one).run(r.trace);
  const RocReport parallel = RocSweep(many).run(r.trace);
  ASSERT_EQ(serial.points.size(), parallel.points.size());
  EXPECT_EQ(serial.fingerprint, parallel.fingerprint);
  EXPECT_EQ(serial.threads_used, 1u);
  EXPECT_GT(parallel.threads_used, 1u);
  for (std::size_t i = 0; i < serial.points.size(); ++i)
    EXPECT_EQ(codec::encode(serial.points[i]),
              codec::encode(parallel.points[i]))
        << "point " << i;
}

TEST(RocSweep, ReproducesAndReactsToTheTrace) {
  const CampaignTrace campaign = record(busy_spec(43));
  ReplayConfig rc = mixed_config(1);
  rc.benign_web = 30;
  const ReplayResult r = replay_trace(campaign, rc);
  const RocSweep sweep;
  EXPECT_EQ(sweep.run(r.trace).fingerprint, sweep.run(r.trace).fingerprint);

  rc.seed = 2;  // different sensor noise => different sweep
  const ReplayResult other = replay_trace(campaign, rc);
  EXPECT_NE(sweep.run(r.trace).fingerprint,
            sweep.run(other.trace).fingerprint);
}

TEST(RocSweep, GridCoversEveryFamilyInDeclarationOrder) {
  const RocSweep sweep;
  EXPECT_EQ(sweep.cell_count(), 16u + 16u + 16u + 16u + 4u);
  const CampaignTrace campaign = record(busy_spec(47));
  ReplayConfig rc;
  rc.benign_web = 10;
  rc.benign_tor = 5;
  const RocReport report =
      RocSweep().run(replay_trace(campaign, rc).trace);
  ASSERT_EQ(report.points.size(), sweep.cell_count());
  EXPECT_EQ(report.points.front().detector, "dga-dns");
  EXPECT_EQ(report.points.back().detector, "tor-flagger");
  // Monotonicity spot-check: a stricter tor-flagger never flags more.
  const RocPoint* prev = nullptr;
  for (const RocPoint& p : report.points) {
    if (p.detector != "tor-flagger") continue;
    if (prev != nullptr) {
      EXPECT_LE(p.flagged, prev->flagged);
    }
    prev = &p;
  }
}

}  // namespace
}  // namespace onion::detection

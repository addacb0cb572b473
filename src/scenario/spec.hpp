// Declarative scenario specifications for the campaign engine. A
// ScenarioSpec describes one seeded experiment — initial overlay, a
// churn process, scheduled attack phases and/or an ordered multi-wave
// plan, defense toggles, and a metrics cadence — without any imperative
// loop; src/scenario/engine.hpp compiles it onto the discrete-event
// simulator. The attack vocabulary follows the paper's Section V
// takedown sweeps and the SOAP campaign of Section VI-B, extended with
// the adaptive re-targeting attacker a real defender runs against a
// self-healing overlay; the defenses are the Section VII-A proof-of-work
// and rate-limiting knobs already modeled by core/overlay.hpp.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/clock.hpp"
#include "common/codec.hpp"
#include "scenario/session.hpp"

namespace onion::scenario {

/// Background membership churn: Poisson joins, and leaves from either a
/// pooled Poisson process or per-bot session lengths. Leaves are
/// "gradual" deaths: the paper's model where the overlay notices and
/// heals (unless disabled).
struct ChurnSpec {
  double joins_per_hour = 0.0;
  double leaves_per_hour = 0.0;
  /// DDSR repair of a leaver's neighborhood (clique + prune + refill).
  bool heal_on_leave = true;

  /// When true, leaves are driven per bot instead of by the pooled
  /// `leaves_per_hour` process (which is then ignored): every initial
  /// bot draws a session length from `session` at t = 0, every joiner
  /// at its join, and leaves when it expires — unless an attack killed
  /// it first. Heavy-tailed models (Pareto, LogNormal) reproduce the
  /// measured P2P pattern of many short sessions plus a long-lived core.
  bool session_leaves = false;
  SessionSpec session;

  /// Wire layout (common/codec.hpp), in encoding order.
  static auto fields(auto& s, auto&& v) {
    return v("ChurnSpec", codec::f64("joins_per_hour", s.joins_per_hour),
             codec::f64("leaves_per_hour", s.leaves_per_hour),
             codec::boolean("heal_on_leave", s.heal_on_leave),
             codec::boolean("session_leaves", s.session_leaves),
             codec::nested("session", s.session));
  }
};

/// What an attack phase does while its window is open.
enum class AttackKind : std::uint8_t {
  RandomTakedown,      // uniformly chosen victims (Figure 5/6 model)
  TargetedTakedown,    // highest-degree bot first
  CentralityTakedown,  // highest pivot-sampled betweenness first
  SoapInjection,       // clone-based containment (Section VI-B)
  AdaptiveTakedown,    // re-ranks victims on a refresh cadence (below)
};

/// How an AdaptiveTakedown attacker scores victims when it (re)ranks.
enum class RankMetric : std::uint8_t {
  SampledBetweenness,  // pivot-sampled Brandes betweenness
  Degree,              // live degree (cheap survey)
};

/// AttackPhase::refresh_period value meaning "rank once, never refresh":
/// the attacker surveys the overlay at its first strike and then works
/// through that stale hit list as the network heals around it.
constexpr SimDuration kNeverRefresh = ~SimDuration{0};

/// One scheduled attack window [start, stop).
struct AttackPhase {
  AttackKind kind = AttackKind::RandomTakedown;
  SimTime start = 0;
  SimTime stop = 0;

  /// Takedown kinds: victims per simulated hour.
  double takedowns_per_hour = 0.0;
  /// Whether victims' neighborhoods run DDSR repair (gradual takedown)
  /// or not (the simultaneous-takedown model of Figure 6).
  bool heal = true;
  /// CentralityTakedown / AdaptiveTakedown(SampledBetweenness): pivots
  /// for the sampled betweenness ranking.
  std::size_t betweenness_pivots = 64;

  /// AdaptiveTakedown: the victim-ranking metric, and how often the
  /// attacker re-surveys the healing overlay. 0 re-ranks before every
  /// strike (the refresh-cadence → ∞ limit). CentralityTakedown and
  /// TargetedTakedown are that ranking on SampledBetweenness and on
  /// Degree: the engine compiles them to it, and tests/scenario_test.cpp
  /// pins the identity byte-for-byte. kNeverRefresh ranks once at the
  /// first strike. Any value in between schedules refreshes at start,
  /// start + refresh_period, ... inside the window, each recorded as a
  /// TraceEventKind::AdaptiveRefresh.
  RankMetric rank = RankMetric::SampledBetweenness;
  SimDuration refresh_period = 0;

  /// SoapInjection: campaign cadence and per-tick round count.
  SimDuration soap_tick = kMinute;
  std::size_t soap_rounds_per_tick = 1;

  /// Wire layout (common/codec.hpp), in encoding order.
  static auto fields(auto& s, auto&& v) {
    return v("AttackPhase",
             codec::enum_u64<AttackKind::AdaptiveTakedown>("kind", s.kind),
             codec::u64("start", s.start), codec::u64("stop", s.stop),
             codec::f64("takedowns_per_hour", s.takedowns_per_hour),
             codec::boolean("heal", s.heal),
             codec::u64("betweenness_pivots", s.betweenness_pivots),
             codec::enum_u64<RankMetric::Degree>("rank", s.rank),
             codec::u64("refresh_period", s.refresh_period),
             codec::u64("soap_tick", s.soap_tick),
             codec::u64("soap_rounds_per_tick", s.soap_rounds_per_tick));
  }
};

/// One wave of a staged campaign plan: an attack that runs for
/// `duration`, followed by a quiet period in which the overlay heals
/// undisturbed before the next wave begins. The wave's attack carries
/// its own kind/intensity knobs; its start/stop are ignored and set
/// from the plan clock.
struct AttackWave {
  AttackPhase attack;
  SimDuration duration = 0;
  SimDuration quiet_after = 0;

  /// Wire layout (common/codec.hpp), in encoding order.
  static auto fields(auto& s, auto&& v) {
    return v("AttackWave", codec::nested("attack", s.attack),
             codec::u64("duration", s.duration),
             codec::u64("quiet_after", s.quiet_after));
  }
};

/// An ordered takedown→heal→re-takedown plan: waves run back to back
/// from `start`, separated by their quiet periods. Waves are compiled
/// into absolute attack windows next to ScenarioSpec::attacks, and each
/// wave's victims are attributed in MetricsSnapshot::wave_takedowns. A
/// plan with one wave reproduces the equivalent single-phase run's
/// event stream exactly (modulo the WaveStart marker; differential in
/// tests/scenario_test.cpp).
struct WavePlan {
  SimTime start = 0;
  std::vector<AttackWave> waves;

  /// Wire layout (common/codec.hpp), in encoding order.
  static auto fields(auto& s, auto&& v) {
    return v("WavePlan", codec::u64("start", s.start),
             codec::list("waves", s.waves));
  }
};

/// Defense toggles (Section VII-A). They gate the overlay's *peering
/// requests* — bootstrap joins, post-eviction refills, and SOAP clone
/// injection. By default DDSR self-healing after a death (clique repair
/// among a dead bot's former neighbors, who already know each other
/// through NoN) runs at the graph level and is not charged;
/// `charge_healing` routes those repair/refill edges through
/// OverlayNetwork::request_peering too, so PoW/rate-limit ablations
/// charge honest self-healing the way refill already is.
struct DefenseSpec {
  /// Peering acceptances per node per round; max() disables the limit.
  std::size_t rate_limit_per_round =
      std::numeric_limits<std::size_t>::max();
  /// Proof-of-work: cost of the n-th request to a node is
  /// pow_base_cost * pow_growth^n (0 disables).
  double pow_base_cost = 0.0;
  double pow_growth = 2.0;
  /// Rate-limit round length (per-round acceptance counters reset on
  /// this cadence).
  SimDuration round = kMinute;

  /// Defense-consistent healing: when true, every DDSR death-repair and
  /// refill edge is a peering request subject to the PoW/rate-limit
  /// policy above (denials leave the hole open until a later round;
  /// DdsrStats::heal_requests_denied counts them, and each request is
  /// recorded as a TraceEventKind::HealPeering). False preserves the
  /// original uncharged graph-level repair semantics — and the
  /// committed golden fingerprints — exactly.
  bool charge_healing = false;

  /// Wire layout (common/codec.hpp), in encoding order.
  static auto fields(auto& s, auto&& v) {
    return v("DefenseSpec",
             codec::u64("rate_limit_per_round", s.rate_limit_per_round),
             codec::f64("pow_base_cost", s.pow_base_cost),
             codec::f64("pow_growth", s.pow_growth),
             codec::u64("round", s.round),
             codec::boolean("charge_healing", s.charge_healing));
  }
};

/// Snapshot cadence and which optional (costlier) metrics to include.
struct MetricsSpec {
  SimDuration period = kMinute;
  /// Degree histogram over honest alive bots.
  bool degree_histogram = true;
  /// Double-sweep diameter restarts; 0 skips the diameter entirely.
  std::size_t diameter_sweeps = 0;

  /// Wire layout (common/codec.hpp), in encoding order.
  static auto fields(auto& s, auto&& v) {
    return v("MetricsSpec", codec::u64("period", s.period),
             codec::boolean("degree_histogram", s.degree_histogram),
             codec::u64("diameter_sweeps", s.diameter_sweeps));
  }
};

/// The full declarative scenario.
struct ScenarioSpec {
  std::uint64_t seed = 1;
  /// Initial overlay: `initial_size` honest bots wired k-regular with
  /// degree band dmin = dmax = `degree` (the paper's topology).
  std::size_t initial_size = 1000;
  std::size_t degree = 10;
  /// Campaign length in simulated time.
  SimTime horizon = kHour;

  ChurnSpec churn;
  std::vector<AttackPhase> attacks;
  WavePlan waves;
  DefenseSpec defense;
  MetricsSpec metrics;

  /// Wire layout (common/codec.hpp), in encoding order: the spec echo
  /// every trace header carries.
  static auto fields(auto& s, auto&& v) {
    return v("ScenarioSpec", codec::u64("seed", s.seed),
             codec::u64("initial_size", s.initial_size),
             codec::u64("degree", s.degree),
             codec::u64("horizon", s.horizon),
             codec::nested("churn", s.churn),
             codec::list("attacks", s.attacks),
             codec::nested("waves", s.waves),
             codec::nested("defense", s.defense),
             codec::nested("metrics", s.metrics));
  }
};

}  // namespace onion::scenario

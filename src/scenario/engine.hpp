// The scenario campaign engine: compiles a declarative ScenarioSpec onto
// the discrete-event simulator. Churn joins arrive as a Poisson process;
// leaves come from the pooled Poisson process or, under
// ChurnSpec::session_leaves, from per-bot (possibly heavy-tailed)
// session lengths. Attack phases — standalone windows and compiled
// multi-wave plans — fire inside their [start, stop) windows, adaptive
// attackers re-rank their hit lists on their refresh cadence, and a
// MetricsSnapshot is emitted through the sink once per metrics period.
// Targeted and centrality takedowns are the refresh-0 case of that
// ranking: every ranked phase picks its victims through one path.
//
// Everything is driven by two independent deterministic streams split
// from the spec seed: one for campaign dynamics (churn, victims, SOAP,
// healing), one for metric sampling — so changing what is *measured*
// can never change what *happens*. Equal spec + equal seed therefore
// reproduces a byte-identical snapshot stream (enforced by
// tests/scenario_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/codec.hpp"
#include "common/rng.hpp"
#include "core/ddsr.hpp"
#include "core/overlay.hpp"
#include "mitigation/soap.hpp"
#include "scenario/snapshot.hpp"
#include "scenario/spec.hpp"
#include "scenario/trace.hpp"
#include "scenario/tracker.hpp"
#include "sim/simulator.hpp"

namespace onion::scenario {

/// Cumulative campaign event counts (also carried in each snapshot).
struct CampaignCounters {
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t takedowns = 0;

  /// Wire layout (common/codec.hpp), in encoding order.
  static auto fields(auto& s, auto&& v) {
    return v("CampaignCounters", codec::u64("joins", s.joins),
             codec::u64("leaves", s.leaves),
             codec::u64("takedowns", s.takedowns));
  }
};

/// Runs one ScenarioSpec to its horizon. Single-shot: construct, run(),
/// inspect.
class CampaignEngine {
 public:
  using NodeId = graph::NodeId;

  /// `trace`, when given, receives the campaign's event stream (joins,
  /// leaves, takedowns, bootstrap peering, SOAP activity, wave starts,
  /// adaptive refreshes, charged healing requests) in simulator order.
  /// The tap is passive — it never draws from the RNG streams — so
  /// running with or without one is byte-identical.
  CampaignEngine(const ScenarioSpec& spec, SnapshotSink& sink,
                 TraceSink* trace = nullptr);

  /// Executes the campaign: snapshot at t = 0, one per metrics period,
  /// and a final one at the horizon. Returns the final snapshot.
  MetricsSnapshot run();

  /// --- post-run introspection -----------------------------------------
  const ScenarioSpec& spec() const { return spec_; }
  const core::OverlayNetwork& overlay() const { return net_; }
  const core::DdsrStats& ddsr_stats() const { return ddsr_.stats(); }
  const CampaignCounters& counters() const { return counters_; }
  const sim::Simulator& simulator() const { return sim_; }
  const StructuralTracker& tracker() const { return tracker_; }
  /// Simulator events executed by run() (0 before it).
  std::size_t events_executed() const { return events_executed_; }
  /// Cumulative takedowns attributed to each wave of the plan.
  const std::vector<std::uint64_t>& wave_takedowns() const {
    return wave_takedowns_;
  }

 private:
  /// Victim ranking of a takedown phase that picks by score. Targeted
  /// and centrality takedowns compile to the refresh-0 ranking on degree
  /// and on sampled betweenness; adaptive phases keep their own metric
  /// and cadence. Scores are indexed by node id at ranking time; nodes
  /// that joined since score 0 until the next refresh — the attacker has
  /// not surveyed them yet.
  struct Ranking {
    RankMetric metric = RankMetric::SampledBetweenness;
    SimDuration refresh_period = 0;
    std::size_t pivots = 0;  // sampled-betweenness pivots
    std::vector<double> score = {};
    bool ranked = false;
  };
  /// One every() chain: its step and the end of its window.
  struct Chain {
    SimTime stop = 0;
    std::function<SimTime()> step;
  };

  // Event bodies.
  void do_join();
  void do_leave();
  void do_session_leave(NodeId bot);
  void do_takedown(std::size_t phase_index);
  /// One scheduled re-survey of a ranking with a finite cadence.
  void do_refresh(std::size_t phase_index);
  /// One SOAP tick; false once the campaign stops progressing (or
  /// found no bot to capture), which ends the phase's chain.
  bool do_soap_tick(std::size_t phase_index);
  void do_round();
  /// Deletes a bot through DDSR, with clique repair iff `heal`.
  void remove_bot(NodeId bot, bool heal);
  /// Re-ranks first when the table is unranked or the phase re-surveys
  /// before every strike (refresh period 0).
  NodeId pick_victim(Ranking& ranking);
  /// Recomputes a score table from the live graph.
  void refresh(Ranking& ranking);
  /// An honest alive bot drawn uniformly. Precondition: one exists.
  NodeId draw_honest();
  /// Sends a peering request and refills the bot a full target evicted
  /// to accept it, so no request leaves a hole.
  core::PeerDecision peer(NodeId requester, NodeId target);

  /// A repeating event: runs `step` at `first`, then at each time it
  /// returns, until that time reaches min(stop, horizon). A step ends
  /// its chain early by returning kEndChain.
  void every(SimTime first, SimTime stop, std::function<SimTime()> step);
  static constexpr SimTime kEndChain = std::numeric_limits<SimTime>::max();
  /// Schedules chain `chain`'s next step at `t`, unless `t` is past its
  /// end. The event holds only an index, so it fits std::function's
  /// inline buffer and a step costs no allocation.
  void arm_chain(std::size_t chain, SimTime t);
  /// Fires once, unless `t` lies past the horizon.
  void arm_session_leave(NodeId bot, SimTime t);
  /// Snapshots on the metrics period and once at the horizon itself.
  void arm_snapshot(SimTime t);

  void take_snapshot();
  MetricsSnapshot compute_snapshot();

  /// Forwards to the trace tap (no-op without one).
  void emit(TraceEventKind kind, std::uint64_t a, std::uint64_t b = 0);

  /// Exponential inter-arrival gap for a Poisson process of `per_hour`
  /// events per simulated hour, clamped to >= 1 ms.
  SimDuration exp_gap(double per_hour);

  ScenarioSpec spec_;
  SnapshotSink& sink_;
  TraceSink* trace_;  // optional event tap; may be nullptr
  Rng rng_;          // campaign dynamics: churn, victims, SOAP, overlay
  Rng metrics_rng_;  // metric sampling only; cannot perturb the run
  sim::Simulator sim_;
  core::OverlayNetwork net_;
  core::DdsrEngine ddsr_;
  StructuralTracker tracker_;  // after net_: attaches to its graph
  /// spec_.attacks plus the wave plan compiled to absolute windows;
  /// indices >= wave_base_ are waves.
  std::vector<AttackPhase> phases_;
  std::size_t wave_base_ = 0;
  std::vector<std::uint64_t> wave_takedowns_;  // one slot per wave
  // One slot per phases_ entry each: a ranking for the takedown kinds
  // that pick by score, a campaign once a SOAP phase has captured a bot.
  std::vector<std::optional<Ranking>> rankings_;
  std::vector<std::unique_ptr<mitigation::SoapCampaign>> soap_;
  std::vector<Chain> chains_;  // the every() chains, armed by run()
  CampaignCounters counters_;
  MetricsSnapshot last_;
  std::size_t events_executed_ = 0;
  bool ran_ = false;
};

}  // namespace onion::scenario

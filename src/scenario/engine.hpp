// The scenario campaign engine: compiles a declarative ScenarioSpec onto
// the discrete-event simulator. Churn joins arrive as a Poisson process;
// leaves come from the pooled Poisson process or, under
// ChurnSpec::session_leaves, from per-bot (possibly heavy-tailed)
// session lengths. Attack phases — standalone windows and compiled
// multi-wave plans — fire inside their [start, stop) windows, adaptive
// attackers re-rank their hit lists on their refresh cadence, and a
// MetricsSnapshot is emitted through the sink once per metrics period.
//
// Everything is driven by two independent deterministic streams split
// from the spec seed: one for campaign dynamics (churn, victims, SOAP,
// healing), one for metric sampling — so changing what is *measured*
// can never change what *happens*. Equal spec + equal seed therefore
// reproduces a byte-identical snapshot stream (enforced by
// tests/scenario_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
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
  /// The compiled attack schedule: spec.attacks followed by the wave
  /// plan's waves as absolute windows (phase index i >= spec.attacks
  /// .size() is wave i - spec.attacks.size()).
  const std::vector<AttackPhase>& phases() const { return phases_; }
  /// Cumulative takedowns attributed to each wave of the plan.
  const std::vector<std::uint64_t>& wave_takedowns() const {
    return wave_takedowns_;
  }

 private:
  struct SoapPhaseState {
    std::unique_ptr<mitigation::SoapCampaign> campaign;
  };
  /// Cached victim ranking of an AdaptiveTakedown phase. Scores are
  /// indexed by node id at ranking time; nodes that joined since score
  /// 0 until the next refresh — the attacker has not surveyed them yet.
  struct AdaptiveState {
    std::vector<double> score;
    bool ranked = false;
  };

  // Event bodies.
  void do_join();
  void do_leave();
  void do_session_leave(NodeId bot);
  void do_takedown(std::size_t phase_index);
  /// Deletes a bot through DDSR, with clique repair iff `heal`.
  void remove_bot(NodeId bot, bool heal);
  NodeId pick_victim(std::size_t phase_index,
                     const std::vector<NodeId>& honest);
  /// Recomputes an adaptive phase's score table from the live graph.
  void refresh_ranking(std::size_t phase_index);

  // Self-rescheduling event chains (each guards against the horizon).
  void arm_join(SimTime t);
  void arm_leave(SimTime t);
  void arm_session_leave(NodeId bot, SimTime t);
  void arm_takedown(std::size_t phase_index, SimTime t);
  void arm_refresh(std::size_t phase_index, SimTime t);
  void arm_soap(std::size_t phase_index, SimTime t);
  void arm_round(SimTime t);
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
  std::vector<SoapPhaseState> soap_;       // one slot per phases_ entry
  std::vector<AdaptiveState> adaptive_;    // one slot per phases_ entry
  CampaignCounters counters_;
  MetricsSnapshot last_;
  std::size_t events_executed_ = 0;
  bool ran_ = false;
};

}  // namespace onion::scenario

// Shared measurement harness for the sweep-vs-incremental snapshot-cost
// benches: micro_snapshot.cpp (the 10k/50k/200k table) and
// bench_report.cpp (the BENCH_scenario.json perf trajectory) must report
// numbers measured the same way, so the loop lives once, here.
//
// Three per-snapshot costs on one live overlay:
//   sweep     — the from-scratch O((n+m)·α) pass the engine used to pay
//               per snapshot (scenario::sweep_structural)
//   growth    — StructuralTracker::fill after a pure-growth window
//               (joins only): O(changes), independent of graph size
//   deletion  — StructuralTracker::fill after a window that lost a bot:
//               with fully-dynamic connectivity this is the same O(1)
//               fill (the split was settled when the edges detached)
#pragma once

#include <chrono>
#include <cstdint>

#include "core/ddsr.hpp"
#include "scenario/tracker.hpp"

namespace onion::bench {

constexpr std::size_t kSnapshotCostDegree = 10;
/// Dense cadence model: this many joins between consecutive snapshots.
constexpr int kGrowthJoinsPerWindow = 8;

struct SnapshotCosts {
  std::size_t nodes = 0;
  double sweep_us = 0.0;
  double incremental_us = 0.0;  // growth window
  double deletion_us = 0.0;     // deletion window, dynamic connectivity
};

namespace detail {

inline double us_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// One join: a node enters and wires itself to `kSnapshotCostDegree`
/// random alive honest bots (graph-level, so only the tracker's observer
/// path is timed, not the peering policy).
inline void join(core::OverlayNetwork& net, Rng& rng) {
  const graph::NodeId id = net.add_node(/*honest=*/true);
  graph::Graph& g = net.graph_mut();
  std::size_t wired = 0;
  while (wired < kSnapshotCostDegree) {
    const auto v = static_cast<graph::NodeId>(rng.uniform(g.capacity()));
    if (v == id || !g.alive(v) || !net.honest(v)) continue;
    if (g.add_edge(id, v)) ++wired;
  }
}

}  // namespace detail

/// Builds a `nodes`-bot 10-regular overlay and measures the three costs,
/// `rounds` repetitions each. `checksum` accumulates observed metric
/// values so the compiler cannot elide the measured work.
inline SnapshotCosts measure_snapshot_costs(std::size_t nodes, int rounds,
                                            std::uint64_t& checksum) {
  using Clock = std::chrono::steady_clock;
  Rng rng(0x5eed + nodes);
  core::OverlayConfig config;
  config.dmin = kSnapshotCostDegree;
  config.dmax = kSnapshotCostDegree;
  core::OverlayNetwork net = core::OverlayNetwork::random_regular(
      nodes, kSnapshotCostDegree, config, rng);
  core::DdsrPolicy policy;
  policy.dmin = kSnapshotCostDegree;
  policy.dmax = kSnapshotCostDegree;
  core::DdsrEngine ddsr(net.graph_mut(), policy, rng);
  scenario::StructuralTracker tracker(net);

  SnapshotCosts costs;
  costs.nodes = nodes;

  // Sweep: the old per-snapshot price, on the live state.
  for (int r = 0; r < rounds; ++r) {
    const auto start = Clock::now();
    const scenario::MetricsSnapshot s =
        scenario::sweep_structural(net, true);
    costs.sweep_us += detail::us_since(start);
    checksum += s.honest_edges;
  }
  costs.sweep_us /= rounds;

  // Growth: pure-growth windows (joins only) then one fill.
  for (int r = 0; r < rounds; ++r) {
    for (int j = 0; j < kGrowthJoinsPerWindow; ++j) detail::join(net, rng);
    const auto start = Clock::now();
    scenario::MetricsSnapshot s;
    tracker.fill(s, true);
    costs.incremental_us += detail::us_since(start);
    checksum += s.honest_edges;
  }
  costs.incremental_us /= rounds;

  // Deletion window: each round loses one bot (DDSR heals the hole;
  // the tracker folds the removal in via the observer as it happens),
  // then the snapshot is billed.
  for (int r = 0; r < rounds; ++r) {
    ddsr.remove_node(
        static_cast<graph::NodeId>(tracker.honest_at(
            rng.uniform(tracker.honest_alive()))));
    const auto fill_start = Clock::now();
    scenario::MetricsSnapshot s;
    tracker.fill(s, true);
    costs.deletion_us += detail::us_since(fill_start);
    checksum += s.honest_edges + s.components;
  }
  costs.deletion_us /= rounds;
  return costs;
}

}  // namespace onion::bench

// Sweep vs incremental snapshot cost, 10k / 50k / 200k / 500k nodes.
//
// Measures what one MetricsSnapshot costs under a dense telemetry
// cadence, three ways on the same live overlay:
//   sweep     — the from-scratch O((n+m)·α) pass the engine used to pay
//               per snapshot (scenario::sweep_structural)
//   growth    — StructuralTracker::fill after a pure-growth window
//               (joins only): O(changes), independent of graph size
//   deletion  — StructuralTracker::fill after a window that lost a bot:
//               with fully-dynamic connectivity this is the same O(1)
//               fill (the split was settled when the edges detached)
//
// The acceptance bars: ≥10x sweep/growth at 50k nodes for the tracker
// rewire, and ≥10x sweep/deletion for the dynamic-connectivity rewire.
//
//   ./build/bench_micro_snapshot
#include <chrono>
#include <cstdint>
#include <cstdio>

#include "core/ddsr.hpp"
#include "scenario/tracker.hpp"

namespace {

using namespace onion;

constexpr std::size_t kDegree = 10;
/// Dense cadence model: this many joins between consecutive snapshots.
constexpr int kGrowthJoinsPerWindow = 8;
constexpr int kRounds = 30;

struct SnapshotCosts {
  double sweep_us = 0.0;
  double incremental_us = 0.0;  // growth window
  double deletion_us = 0.0;     // deletion window, dynamic connectivity
};

double us_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// One join: a node enters and wires itself to `kDegree` random alive
/// honest bots (graph-level, so only the tracker's observer path is
/// timed, not the peering policy).
void join(core::OverlayNetwork& net, Rng& rng) {
  const graph::NodeId id = net.add_node(/*honest=*/true);
  graph::Graph& g = net.graph_mut();
  std::size_t wired = 0;
  while (wired < kDegree) {
    const auto v = static_cast<graph::NodeId>(rng.uniform(g.capacity()));
    if (v == id || !g.alive(v) || !net.honest(v)) continue;
    if (g.add_edge(id, v)) ++wired;
  }
}

/// Builds a `nodes`-bot 10-regular overlay and measures the three costs,
/// `kRounds` repetitions each. `checksum` accumulates observed metric
/// values so the compiler cannot elide the measured work.
SnapshotCosts measure(std::size_t nodes, std::uint64_t& checksum) {
  using Clock = std::chrono::steady_clock;
  Rng rng(0x5eed + nodes);
  core::OverlayConfig config;
  config.dmin = kDegree;
  config.dmax = kDegree;
  core::OverlayNetwork net =
      core::OverlayNetwork::random_regular(nodes, kDegree, config, rng);
  core::DdsrPolicy policy;
  policy.dmin = kDegree;
  policy.dmax = kDegree;
  core::DdsrEngine ddsr(net.graph_mut(), policy, rng);
  scenario::StructuralTracker tracker(net);

  SnapshotCosts costs;

  // Sweep: the old per-snapshot price, on the live state.
  for (int r = 0; r < kRounds; ++r) {
    const auto start = Clock::now();
    const scenario::MetricsSnapshot s =
        scenario::sweep_structural(net, true);
    costs.sweep_us += us_since(start);
    checksum += s.honest_edges;
  }
  costs.sweep_us /= kRounds;

  // Growth: pure-growth windows (joins only) then one fill.
  for (int r = 0; r < kRounds; ++r) {
    for (int j = 0; j < kGrowthJoinsPerWindow; ++j) join(net, rng);
    const auto start = Clock::now();
    scenario::MetricsSnapshot s;
    tracker.fill(s, true);
    costs.incremental_us += us_since(start);
    checksum += s.honest_edges;
  }
  costs.incremental_us /= kRounds;

  // Deletion window: each round loses one bot (DDSR heals the hole;
  // the tracker folds the removal in via the observer as it happens),
  // then the snapshot is billed.
  for (int r = 0; r < kRounds; ++r) {
    ddsr.remove_node(static_cast<graph::NodeId>(
        tracker.honest_at(rng.uniform(tracker.honest_alive()))));
    const auto start = Clock::now();
    scenario::MetricsSnapshot s;
    tracker.fill(s, true);
    costs.deletion_us += us_since(start);
    checksum += s.honest_edges + s.components;
  }
  costs.deletion_us /= kRounds;
  return costs;
}

}  // namespace

int main() {
  std::printf(
      "=== Snapshot cost: sweep vs incremental tracker ===\n"
      "%d-join growth windows between snapshots (dense cadence model).\n\n",
      kGrowthJoinsPerWindow);
  std::printf(
      "    nodes    sweep_us  growth_us  deletion_us   del_speedup\n");
  std::uint64_t checksum = 0;
  for (const std::size_t n : {std::size_t{10'000}, std::size_t{50'000},
                              std::size_t{200'000}, std::size_t{500'000}}) {
    const SnapshotCosts c = measure(n, checksum);
    std::printf("  %7zu  %10.1f  %9.2f  %11.2f  %10.0fx\n", n, c.sweep_us,
                c.incremental_us, c.deletion_us,
                c.sweep_us / c.deletion_us);
  }
  std::printf(
      "\nthe sweep scales with the graph; growth and deletion\n"
      "fills scale with the window's event count. (checksum %llu)\n",
      static_cast<unsigned long long>(checksum));
  return 0;
}

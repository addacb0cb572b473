// Sweep vs incremental snapshot cost, 10k / 50k / 200k nodes.
//
// Measures what one MetricsSnapshot costs under a dense telemetry
// cadence, three ways on the same overlay (see snapshot_cost.hpp for the
// shared harness): the from-scratch sweep the engine used to pay, the
// tracker's pure-growth-window fill, and the tracker's deletion-window
// fill (fully-dynamic connectivity — the former rebuild cliff).
//
// The acceptance bars: ≥10x sweep/growth at 50k nodes for the tracker
// rewire, and ≥10x sweep/deletion for the dynamic-connectivity rewire;
// bench_report.cpp records the same numbers (same harness) into
// BENCH_scenario.json for the per-PR perf trajectory.
#include <cstdio>

#include "snapshot_cost.hpp"

int main() {
  using onion::bench::SnapshotCosts;
  std::printf(
      "=== Snapshot cost: sweep vs incremental tracker ===\n"
      "%d-join growth windows between snapshots (dense cadence model).\n\n",
      onion::bench::kGrowthJoinsPerWindow);
  std::printf(
      "    nodes    sweep_us  growth_us  deletion_us   del_speedup\n");
  std::uint64_t checksum = 0;
  for (const std::size_t n :
       {std::size_t{10'000}, std::size_t{50'000}, std::size_t{200'000}}) {
    const SnapshotCosts c =
        onion::bench::measure_snapshot_costs(n, /*rounds=*/30, checksum);
    std::printf("  %7zu  %10.1f  %9.2f  %11.2f  %10.0fx\n", n,
                c.sweep_us, c.incremental_us, c.deletion_us,
                c.sweep_us / c.deletion_us);
  }
  std::printf(
      "\nthe sweep scales with the graph; growth and deletion\n"
      "fills scale with the window's event count. (checksum %llu)\n",
      static_cast<unsigned long long>(checksum));
  return 0;
}

// Perf-trajectory driver: runs the pinned 10k-bot campaign and the
// 500k-bot leave-heavy scale campaign, and writes BENCH_scenario.json —
// wall-clock, events/sec, and per-snapshot cost at a sparse (5 min) and
// a dense (1 s) telemetry cadence, plus the sweep-vs-incremental
// snapshot microbench at 10k/50k/500k. The Release CI job runs this and
// uploads the JSON as an artifact, so every PR leaves a measured data
// point.
//
//   ./build/bench_bench_report [output.json]        (default BENCH_scenario.json)
//
// The campaign specs are pinned so numbers are comparable across PRs.
// 10k: degree 10, one hour, 500/500 churn per hour, a 600/h
// random-takedown wave in minutes [15, 45); only the cadence differs
// between its two runs. 500k ("leave_heavy_500k_1s"): ten minutes at a
// 1 s cadence with 18000 leaves/h plus a 6000/h takedown wave — every
// snapshot window contains deletions, the exact regime where the old
// hybrid tracker paid a full component rebuild per snapshot.
// Fingerprints are recorded so a perf regression hunt can also detect a
// behavior change at a glance (tests/goldens/campaign_10k.txt and
// campaign_500k.txt pin them in CI).
#include <chrono>
#include <cstdio>
#include <string>

#include "scenario/engine.hpp"
#include "snapshot_cost.hpp"

namespace {

using namespace onion;
using namespace onion::scenario;
using onion::bench::SnapshotCosts;
using Clock = std::chrono::steady_clock;

ScenarioSpec pinned_spec(SimDuration metrics_period) {
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
  spec.metrics.period = metrics_period;
  return spec;
}

/// The scale tier: 500k bots, leave-heavy churn, dense 1 s cadence.
/// tests/scale_test.cpp runs the same spec as the labeled scale smoke.
ScenarioSpec scale_spec() {
  ScenarioSpec spec;
  spec.seed = 0x5ca1e;
  spec.initial_size = 500'000;
  spec.degree = 10;
  spec.horizon = 10 * kMinute;
  spec.churn.joins_per_hour = 600.0;
  spec.churn.leaves_per_hour = 18'000.0;
  AttackPhase takedown;
  takedown.kind = AttackKind::RandomTakedown;
  takedown.start = 2 * kMinute;
  takedown.stop = 8 * kMinute;
  takedown.takedowns_per_hour = 6'000.0;
  spec.attacks.push_back(takedown);
  spec.metrics.period = kSecond;
  return spec;
}

struct RunResult {
  std::string cadence;
  std::size_t snapshots = 0;
  std::size_t events = 0;
  std::uint64_t rebuilds = 0;
  double wall_seconds = 0.0;
  std::string fingerprint;
};

RunResult run_campaign(const char* cadence, const ScenarioSpec& spec) {
  RunResult result;
  result.cadence = cadence;
  HashSink sink;
  const auto start = Clock::now();
  CampaignEngine engine(spec, sink);
  engine.run();
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.snapshots = sink.count();
  result.events = engine.events_executed();
  result.rebuilds = engine.tracker().rebuilds();
  result.fingerprint = sink.hex_digest();
  return result;
}

void write_run(std::FILE* out, const RunResult& r, bool last) {
  std::fprintf(out,
               "    {\n"
               "      \"cadence\": \"%s\",\n"
               "      \"snapshots\": %zu,\n"
               "      \"events\": %zu,\n"
               "      \"events_per_second\": %.0f,\n"
               "      \"component_rebuilds\": %llu,\n"
               "      \"wall_seconds\": %.4f,\n"
               "      \"fingerprint\": \"%s\"\n"
               "    }%s\n",
               r.cadence.c_str(), r.snapshots, r.events,
               static_cast<double>(r.events) / r.wall_seconds,
               static_cast<unsigned long long>(r.rebuilds),
               r.wall_seconds, r.fingerprint.c_str(), last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "BENCH_scenario.json";

  const RunResult sparse =
      run_campaign("sparse_300s", pinned_spec(5 * kMinute));
  const RunResult dense = run_campaign("dense_1s", pinned_spec(kSecond));
  const RunResult scale =
      run_campaign("leave_heavy_500k_1s", scale_spec());
  std::uint64_t checksum = 0;  // defeats dead-code elimination
  const SnapshotCosts costs[] = {
      onion::bench::measure_snapshot_costs(10'000, /*rounds=*/50, checksum),
      onion::bench::measure_snapshot_costs(50'000, /*rounds=*/50, checksum),
      onion::bench::measure_snapshot_costs(500'000, /*rounds=*/10,
                                           checksum)};
  constexpr std::size_t kCostRows = sizeof(costs) / sizeof(costs[0]);
  if (checksum == 0) std::printf("# impossible\n");

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"scenario_campaign_10k\",\n"
               "  \"spec\": {\n"
               "    \"initial_size\": 10000,\n"
               "    \"degree\": 10,\n"
               "    \"horizon_hours\": 1,\n"
               "    \"joins_per_hour\": 500,\n"
               "    \"leaves_per_hour\": 500,\n"
               "    \"takedowns_per_hour\": 600,\n"
               "    \"seed\": \"0xbe7c\"\n"
               "  },\n"
               "  \"runs\": [\n");
  write_run(out, sparse, false);
  write_run(out, dense, true);
  // The 500k tier lives under its own key: the golden guard diffs
  // `runs` against tests/goldens/campaign_10k.txt and `scale_runs`
  // against campaign_500k.txt, so the 10k goldens stay byte-stable.
  std::fprintf(out,
               "  ],\n"
               "  \"scale_spec\": {\n"
               "    \"initial_size\": 500000,\n"
               "    \"degree\": 10,\n"
               "    \"horizon_minutes\": 10,\n"
               "    \"joins_per_hour\": 600,\n"
               "    \"leaves_per_hour\": 18000,\n"
               "    \"takedowns_per_hour\": 6000,\n"
               "    \"seed\": \"0x5ca1e\"\n"
               "  },\n"
               "  \"scale_runs\": [\n");
  write_run(out, scale, true);
  std::fprintf(out, "  ],\n  \"snapshot_cost_us\": [\n");
  for (std::size_t i = 0; i < kCostRows; ++i) {
    std::fprintf(out,
                 "    {\n"
                 "      \"nodes\": %zu,\n"
                 "      \"sweep_baseline\": %.2f,\n"
                 "      \"incremental_growth_window\": %.3f,\n"
                 "      \"dynamic_deletion_window\": %.3f,\n"
                 "      \"speedup_growth_vs_sweep\": %.1f,\n"
                 "      \"speedup_deletion_vs_sweep\": %.1f\n"
                 "    }%s\n",
                 costs[i].nodes, costs[i].sweep_us,
                 costs[i].incremental_us, costs[i].deletion_us,
                 costs[i].sweep_us / costs[i].incremental_us,
                 costs[i].sweep_us / costs[i].deletion_us,
                 i + 1 == kCostRows ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);

  std::printf(
      "wrote %s\n"
      "  sparse_300s: %zu snapshots, %.3fs wall, %zu events\n"
      "  dense_1s:    %zu snapshots, %.3fs wall, %zu events, %llu rebuilds\n"
      "  leave_heavy_500k_1s: %zu snapshots, %.3fs wall, %zu events, "
      "%llu rebuilds\n",
      path, sparse.snapshots, sparse.wall_seconds, sparse.events,
      dense.snapshots, dense.wall_seconds, dense.events,
      static_cast<unsigned long long>(dense.rebuilds), scale.snapshots,
      scale.wall_seconds, scale.events,
      static_cast<unsigned long long>(scale.rebuilds));
  for (const SnapshotCosts& c : costs)
    std::printf(
        "  snapshot us @%zu: sweep %.1f, growth %.2f (%.0fx), deletion "
        "%.2f (%.0fx)\n",
        c.nodes, c.sweep_us, c.incremental_us,
        c.sweep_us / c.incremental_us, c.deletion_us,
        c.sweep_us / c.deletion_us);
  return 0;
}

// Crash-tolerant multi-process grids, end to end: the same 6-cell
// campaign grid runs (1) in-process, (2) across forked workers with a
// scripted permanent crash — the poisoned cell quarantines while every
// other cell completes and merges — and (3) again over the same results
// directory with the fault gone: the valid frames resume untouched, only
// the quarantined cell re-runs, and the repaired merge equals the
// in-process fingerprint exactly.
//
//   cmake --build build --target example_grid_recovery
//   ./build/example_grid_recovery
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "scenario/runner.hpp"

using namespace onion;
using namespace onion::scenario;

namespace {

ScenarioSpec base_spec() {
  ScenarioSpec spec;
  spec.initial_size = 150;
  spec.degree = 6;
  spec.horizon = 10 * kMinute;
  spec.churn.joins_per_hour = 240.0;
  spec.churn.leaves_per_hour = 240.0;
  AttackPhase takedown;
  takedown.kind = AttackKind::RandomTakedown;
  takedown.start = 2 * kMinute;
  takedown.stop = 8 * kMinute;
  takedown.takedowns_per_hour = 120.0;
  spec.attacks.push_back(takedown);
  spec.metrics.period = kMinute;
  return spec;
}

void summarize(const char* title, const GridReport& report) {
  std::printf("%s\n", title);
  std::printf("  completed %zu/%zu cells, %llu retries, %llu resumed\n",
              report.cells.size() - report.failed_cells.size(),
              report.cells.size(),
              static_cast<unsigned long long>(report.retries),
              static_cast<unsigned long long>(report.resumed_cells));
  for (const FailedCell& f : report.failed_cells)
    std::printf("  quarantined: cell %llu (%s) after %llu attempts: %s\n",
                static_cast<unsigned long long>(f.cell_index),
                f.label.c_str(),
                static_cast<unsigned long long>(f.attempts), f.error.c_str());
  std::printf("  combined fingerprint: %.24s…\n\n",
              report.combined_fingerprint.c_str());
}

}  // namespace

int main() {
  const CampaignGrid grid = CampaignGrid::seed_sweep(base_spec(), 100, 6);
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("grid_recovery_" + std::to_string(::getpid()))).string();

  std::printf("=== Grid recovery: quarantine, resume, repair ===\n\n");

  const GridReport in_process = grid.run();
  summarize("[1] in-process baseline", in_process);

  // Cell 3 crashes on every allowed attempt: after max_attempts it is
  // quarantined, the grid degrades gracefully, and the merge covers the
  // five completed cells.
  GridCoordinatorConfig config;
  config.results_dir = dir;
  config.workers = 3;
  config.backoff_base_seconds = 0.01;
  config.backoff_max_seconds = 0.1;
  config.faults = FaultPlan::parse("crash@3:0;crash@3:1;crash@3:2");
  CampaignCellJob job(grid);
  const GridReport degraded = job.report(coordinate_job(job, config));
  summarize("[2] forked workers, cell 3 crashing on every attempt",
            degraded);

  // Same directory, fault cleared: the five valid frames are resumed
  // (checkpoint, not re-run) and only cell 3 executes. The repaired
  // merge equals the in-process digest — the fingerprint is invariant
  // to worker count, partition, retry history, and the recovery path.
  config.faults = FaultPlan();
  const GridReport repaired = job.report(coordinate_job(job, config));
  summarize("[3] resumed over the same directory, fault cleared",
            repaired);

  const bool match =
      repaired.combined_fingerprint == in_process.combined_fingerprint;
  std::printf("repaired merge %s the in-process fingerprint\n",
              match ? "MATCHES" : "DIVERGES FROM");
  std::filesystem::remove_all(dir);
  return match && repaired.failed_cells.empty() ? 0 : 1;
}

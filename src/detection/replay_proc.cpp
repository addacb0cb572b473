#include "detection/replay_proc.hpp"

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "scenario/wire.hpp"

namespace onion::detection {

std::string replay_cell_frame_filename(std::uint64_t cell_index) {
  char name[48];
  std::snprintf(name, sizeof name, "replay_cell_%06llu.frame",
                static_cast<unsigned long long>(cell_index));
  return name;
}

ReplayGridJob::ReplayGridJob(
    const ReplayGrid& grid,
    std::vector<const scenario::TraceSource*> campaigns)
    : grid_(grid),
      campaigns_(std::move(campaigns)),
      campaign_count_(campaigns_.size()) {
  for (const scenario::TraceSource* campaign : campaigns_)
    ONION_EXPECTS(campaign != nullptr);
  cells_.resize(grid_.cell_count(campaign_count_));
  present_.resize(cells_.size(), false);
}

ReplayGridJob::ReplayGridJob(const ReplayGrid& grid,
                             std::size_t campaign_count)
    : grid_(grid), campaign_count_(campaign_count) {
  cells_.resize(grid_.cell_count(campaign_count_));
  present_.resize(cells_.size(), false);
}

std::size_t ReplayGridJob::size() const { return cells_.size(); }

std::string ReplayGridJob::frame_filename(std::uint64_t cell_index) const {
  return replay_cell_frame_filename(cell_index);
}

std::string ReplayGridJob::cell_label(std::uint64_t cell_index) const {
  const std::size_t seeds = grid_.config().replay_seeds.size();
  return "campaign=" + std::to_string(cell_index / seeds) +
         ",replay_seed=" +
         std::to_string(grid_.config().replay_seeds[cell_index % seeds]);
}

std::uint64_t ReplayGridJob::cell_seed(std::uint64_t cell_index) const {
  const std::size_t seeds = grid_.config().replay_seeds.size();
  return grid_.config().replay_seeds[cell_index % seeds];
}

Bytes ReplayGridJob::run_cell(std::uint64_t cell_index) const {
  // A merge-only job holds no trace sources; executing through it is a
  // caller bug, not a recoverable condition.
  ONION_EXPECTS_MSG(!campaigns_.empty(),
                    "merge-only ReplayGridJob asked to run cell "
                        << cell_index);
  const std::size_t seeds = grid_.config().replay_seeds.size();
  const ReplayGridCell cell =
      grid_.run_cell(*campaigns_[cell_index / seeds], cell_index);
  return scenario::wire::encode_replay_cell(cell);
}

bool ReplayGridJob::accept_frame(std::uint64_t cell_index, BytesView framed,
                                 std::string& error) {
  ReplayGridCell loaded = scenario::wire::decode_replay_cell(framed);
  const std::size_t seeds = grid_.config().replay_seeds.size();
  const std::uint64_t campaign = cell_index / seeds;
  const std::uint64_t replay_seed =
      grid_.config().replay_seeds[cell_index % seeds];
  if (loaded.cell_index != cell_index || loaded.campaign != campaign ||
      loaded.replay_seed != replay_seed ||
      loaded.points.size() != grid_.points_per_cell()) {
    error = "frame identity mismatch: holds (cell " +
            std::to_string(loaded.cell_index) + ", campaign " +
            std::to_string(loaded.campaign) + ", replay_seed " +
            std::to_string(loaded.replay_seed) + ", " +
            std::to_string(loaded.points.size()) + " points), expected (cell " +
            std::to_string(cell_index) + ", campaign " +
            std::to_string(campaign) + ", replay_seed " +
            std::to_string(replay_seed) + ", " +
            std::to_string(grid_.points_per_cell()) + " points)";
    return false;
  }
  cells_[cell_index] = std::move(loaded);
  present_[cell_index] = true;
  return true;
}

ReplayGridReport ReplayGridJob::take_report() {
  ReplayGridReport report;
  report.points.reserve(cells_.size() * grid_.points_per_cell());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (!present_[i]) continue;
    for (ReplayGridPoint& p : cells_[i].points)
      report.points.push_back(std::move(p));
  }
  report.fingerprint = combine_replay_points(report.points);
  return report;
}

void run_replay_worker_cells(
    const ReplayGrid& grid,
    std::vector<const scenario::TraceSource*> campaigns,
    const std::vector<scenario::CellAssignment>& assignments,
    const std::string& results_dir, const scenario::FaultPlan& faults) {
  ReplayGridJob job(grid, std::move(campaigns));
  run_job_worker_cells(job, assignments, results_dir, faults);
}

ReplayGridReport merge_replay_frames(const ReplayGrid& grid,
                                     std::size_t campaign_count,
                                     const std::string& results_dir) {
  const auto start = std::chrono::steady_clock::now();
  ReplayGridJob job(grid, campaign_count);
  std::vector<scenario::FailedCell> failed;
  for (std::size_t i = 0; i < job.size(); ++i) {
    std::string error;
    if (scenario::try_accept_frame(
            job, results_dir + "/" + job.frame_filename(i), i, error))
      continue;
    failed.push_back({i, job.cell_label(i), job.cell_seed(i),
                      /*attempts=*/0, error});
  }
  ReplayGridReport report = job.take_report();
  report.failed_cells = std::move(failed);
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

ReplayGridCoordinator::ReplayGridCoordinator(
    const ReplayGrid& grid,
    std::vector<const scenario::TraceSource*> campaigns,
    scenario::GridCoordinatorConfig config)
    : grid_(grid), campaigns_(std::move(campaigns)), config_(std::move(config)) {
  scenario::validate_coordinator_config(config_);
}

ReplayGridReport ReplayGridCoordinator::run() {
  ReplayGridJob job(grid_, campaigns_);
  scenario::ProcessCellCoordinator coordinator(job, config_);
  scenario::ProcessOutcome outcome = coordinator.run();

  ReplayGridReport report = job.take_report();
  report.failed_cells = std::move(outcome.failed_cells);
  report.threads_used = outcome.workers;
  report.retries = outcome.retries;
  report.resumed_cells = outcome.resumed_cells;
  report.wall_seconds = outcome.wall_seconds;
  return report;
}

}  // namespace onion::detection

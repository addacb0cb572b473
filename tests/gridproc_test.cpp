// Multi-process grid robustness (fork-based, so deliberately NOT in the
// ONION_TSAN_SUITES tier — TSan and fork() do not mix). Every failure
// mode is injected deterministically via FaultPlan — crash before the
// frame, corrupt frame, hang past the timeout — and each test proves
// the crash-tolerance contract: the merged combined fingerprint equals
// the single-process digest no matter the worker count, partition,
// retry history, or resume path; permanent failures quarantine instead
// of poisoning the merge. Both job kinds also agree across all three
// transports (run_job, coordinate_job, merge_job_frames).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/fileio.hpp"
#include "detection/replay_grid.hpp"
#include "scenario/engine.hpp"
#include "scenario/runner.hpp"
#include "scenario/trace_io.hpp"
#include "scenario/wire.hpp"

namespace onion::scenario {
namespace {

namespace fs = std::filesystem;

ScenarioSpec tiny_spec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.initial_size = 80;
  spec.degree = 5;
  spec.horizon = 6 * kMinute;
  spec.churn.joins_per_hour = 240.0;
  spec.churn.leaves_per_hour = 240.0;
  AttackPhase takedown;
  takedown.kind = AttackKind::RandomTakedown;
  takedown.start = kMinute;
  takedown.stop = 5 * kMinute;
  takedown.takedowns_per_hour = 120.0;
  spec.attacks.push_back(takedown);
  spec.metrics.period = kMinute;
  return spec;
}

CampaignGrid tiny_grid() {
  return CampaignGrid::seed_sweep(tiny_spec(0), 500, 4);
}

/// A fresh per-test results directory under the gtest temp root.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "gridproc_" + name;
  fs::remove_all(dir);
  return dir;
}

GridCoordinatorConfig fast_config(const std::string& dir) {
  GridCoordinatorConfig config;
  config.results_dir = dir;
  config.workers = 2;
  config.max_attempts = 3;
  // Tight enough that a hung worker dies in ~a second, generous enough
  // that a loaded CI box never times out a healthy 80-bot cell.
  config.cell_timeout_seconds = 30.0;
  config.backoff_base_seconds = 0.001;
  config.backoff_max_seconds = 0.01;
  config.poll_interval_seconds = 0.002;
  return config;
}

GridReport coordinate(const CampaignGrid& grid,
                      const GridCoordinatorConfig& config) {
  CampaignCellJob job(grid);
  return job.report(coordinate_job(job, config));
}

void run_worker_shard(const CampaignGrid& grid,
                      const std::vector<CellAssignment>& assignments,
                      const std::string& dir) {
  CampaignCellJob job(grid);
  run_job_worker_cells(job, assignments, dir);
}

TEST(GridProcess, MultiprocessMatchesInProcessFingerprints) {
  const CampaignGrid grid = tiny_grid();
  const GridReport in_process = grid.run(2);
  const GridReport merged = coordinate(grid, fast_config(fresh_dir("match")));
  EXPECT_TRUE(merged.failed_cells.empty());
  EXPECT_EQ(merged.retries, 0u);
  EXPECT_EQ(merged.resumed_cells, 0u);
  ASSERT_EQ(merged.cells.size(), in_process.cells.size());
  for (std::size_t i = 0; i < merged.cells.size(); ++i) {
    EXPECT_EQ(merged.cells[i].label, in_process.cells[i].label);
    EXPECT_EQ(merged.cells[i].fingerprint, in_process.cells[i].fingerprint);
    ASSERT_EQ(merged.cells[i].series.size(),
              in_process.cells[i].series.size());
    for (std::size_t k = 0; k < merged.cells[i].series.size(); ++k)
      EXPECT_EQ(codec::encode(merged.cells[i].series[k]),
                codec::encode(in_process.cells[i].series[k]));
  }
  EXPECT_EQ(merged.combined_fingerprint, in_process.combined_fingerprint);
}

TEST(GridProcess, EveryFaultKindRetriesToTheSameFingerprint) {
  const CampaignGrid grid = tiny_grid();
  const GridReport in_process = grid.run(2);
  GridCoordinatorConfig config = fast_config(fresh_dir("faults"));
  // One of each failure mode, all on attempt 0, so round one loses three
  // cells three different ways and round two repairs them all.
  config.faults = FaultPlan::parse("crash@1:0;corrupt@2:0;hang@3:0");
  config.cell_timeout_seconds = 1.0;  // the hang must die quickly
  const GridReport merged = coordinate(grid, config);
  EXPECT_TRUE(merged.failed_cells.empty());
  EXPECT_GE(merged.retries, 3u);
  EXPECT_EQ(merged.combined_fingerprint, in_process.combined_fingerprint);
}

TEST(GridProcess, PermanentCrashQuarantinesAndMergesTheRest) {
  const CampaignGrid grid = tiny_grid();
  GridCoordinatorConfig config = fast_config(fresh_dir("quarantine"));
  config.faults = FaultPlan::parse("crash@2:0;crash@2:1;crash@2:2");
  const GridReport merged = coordinate(grid, config);
  ASSERT_EQ(merged.failed_cells.size(), 1u);
  EXPECT_EQ(merged.failed_cells[0].cell_index, 2u);
  EXPECT_EQ(merged.failed_cells[0].label, grid.cells()[2].label);
  EXPECT_EQ(merged.failed_cells[0].seed, grid.cells()[2].spec.seed);
  EXPECT_EQ(merged.failed_cells[0].attempts, config.max_attempts);
  EXPECT_FALSE(merged.failed_cells[0].error.empty());
  // Graceful degradation: the quarantined slot keeps its place with an
  // empty fingerprint, and the merge covers exactly the completed cells.
  ASSERT_EQ(merged.cells.size(), grid.size());
  EXPECT_TRUE(merged.cells[2].fingerprint.empty());
  GridReport expected = grid.run(2);
  expected.cells[2].fingerprint.clear();
  EXPECT_EQ(merged.combined_fingerprint,
            combine_cell_fingerprints(expected.cells));
}

TEST(GridProcess, ResumeSkipsEveryValidFrame) {
  const CampaignGrid grid = tiny_grid();
  const std::string dir = fresh_dir("resume");
  const GridReport first = coordinate(grid, fast_config(dir));
  const GridReport second = coordinate(grid, fast_config(dir));
  EXPECT_EQ(second.resumed_cells, grid.size());
  EXPECT_EQ(second.retries, 0u);
  EXPECT_EQ(second.combined_fingerprint, first.combined_fingerprint);
}

TEST(GridProcess, ResumeReRunsOnlyTheCorruptedFrame) {
  const CampaignGrid grid = tiny_grid();
  const std::string dir = fresh_dir("repair");
  const GridReport first = coordinate(grid, fast_config(dir));
  // Flip one payload byte of cell 1's frame; record the other frames so
  // we can prove they were not rewritten.
  std::vector<Bytes> before;
  for (std::uint64_t i = 0; i < grid.size(); ++i)
    before.push_back(
        read_file_bytes(dir + "/" + cell_frame_filename(i)));
  Bytes corrupt = before[1];
  corrupt[wire::kFrameHeaderBytes + 10] ^= 0x40;
  write_file_atomic(dir + "/" + cell_frame_filename(1), corrupt);

  const GridReport repaired = coordinate(grid, fast_config(dir));
  EXPECT_EQ(repaired.resumed_cells, grid.size() - 1);
  EXPECT_TRUE(repaired.failed_cells.empty());
  EXPECT_EQ(repaired.combined_fingerprint, first.combined_fingerprint);
  for (std::uint64_t i = 0; i < grid.size(); ++i) {
    const Bytes after = read_file_bytes(dir + "/" + cell_frame_filename(i));
    if (i == 1) {
      EXPECT_NE(after, corrupt);  // repaired, not left poisoned
      // The re-run differs only in the informational wall clock: every
      // deterministic field matches the original frame.
      const CellResult rerun = wire::decode_frame<CellResult>(after);
      const CellResult original = wire::decode_frame<CellResult>(before[1]);
      EXPECT_EQ(rerun.label, original.label);
      EXPECT_EQ(rerun.seed, original.seed);
      EXPECT_EQ(rerun.fingerprint, original.fingerprint);
      EXPECT_EQ(rerun.events_executed, original.events_executed);
    } else {
      EXPECT_EQ(after, before[i]) << "frame " << i << " was rewritten";
    }
  }
}

TEST(GridProcess, WorkerModeShardsMergeLikeTheCoordinator) {
  // Two hand-partitioned run_job_worker_cells calls (the gridworker
  // --worker path) followed by a coordinator pass over the same
  // directory: every frame resumes, nothing re-runs, same merge.
  const CampaignGrid grid = tiny_grid();
  const std::string dir = fresh_dir("shards");
  run_worker_shard(grid, {{0, 0}, {2, 0}}, dir);
  run_worker_shard(grid, {{1, 0}, {3, 0}}, dir);
  const GridReport merged = coordinate(grid, fast_config(dir));
  EXPECT_EQ(merged.resumed_cells, grid.size());
  EXPECT_TRUE(merged.failed_cells.empty());
  EXPECT_EQ(merged.combined_fingerprint,
            grid.run(2).combined_fingerprint);
}

TEST(GridProcess, FaultPlanParsesAndRoundTrips) {
  const std::string text = "crash@2:0;hang@5:1;corrupt@7:0";
  const FaultPlan plan = FaultPlan::parse(text);
  EXPECT_EQ(plan.to_string(), text);
  EXPECT_NE(plan.match(2, 0), nullptr);
  EXPECT_EQ(plan.match(2, 0)->kind, FaultSpec::Kind::kCrash);
  EXPECT_NE(plan.match(5, 1), nullptr);
  EXPECT_EQ(plan.match(5, 1)->kind, FaultSpec::Kind::kHang);
  EXPECT_NE(plan.match(7, 0), nullptr);
  EXPECT_EQ(plan.match(7, 0)->kind, FaultSpec::Kind::kCorrupt);
  EXPECT_EQ(plan.match(2, 1), nullptr);  // attempt matters
  EXPECT_EQ(plan.match(3, 0), nullptr);
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_THROW(FaultPlan::parse("explode@2:0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("crash@x:0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("crash@2"), std::invalid_argument);
}

TEST(GridProcess, CoordinatorConfigIsValidated) {
  const CampaignGrid grid = tiny_grid();
  CampaignCellJob job(grid);
  GridCoordinatorConfig config = fast_config(fresh_dir("validate"));
  config.workers = 0;
  EXPECT_THROW(coordinate_job(job, config), ContractViolation);
  config = fast_config(fresh_dir("validate2"));
  config.max_attempts = 0;
  EXPECT_THROW(coordinate_job(job, config), ContractViolation);

  // Every duration must be finite and > 0: a NaN backoff survives
  // std::min into sleep_for, and an infinite poll interval reaches it
  // directly.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double bad_values[] = {std::nan(""), kInf, -kInf, 0.0, -1.0};
  double GridCoordinatorConfig::*const durations[] = {
      &GridCoordinatorConfig::cell_timeout_seconds,
      &GridCoordinatorConfig::backoff_base_seconds,
      &GridCoordinatorConfig::backoff_max_seconds,
      &GridCoordinatorConfig::poll_interval_seconds,
  };
  for (double GridCoordinatorConfig::*field : durations) {
    for (const double value : bad_values) {
      config = fast_config("unused");
      config.*field = value;
      EXPECT_THROW(validate_coordinator_config(config), ContractViolation)
          << "duration set to " << value;
    }
  }
  EXPECT_NO_THROW(validate_coordinator_config(fast_config("unused")));
}

TEST(GridProcess, EveryTransportGivesTheSameCampaignFingerprint) {
  const CampaignGrid grid = tiny_grid();
  const std::string dir = fresh_dir("transports");
  CampaignCellJob job(grid);
  const GridReport pooled = job.report(run_job(job, 2));
  const GridReport coordinated =
      job.report(coordinate_job(job, fast_config(dir)));
  const GridReport merged = job.report(merge_job_frames(job, dir));
  EXPECT_TRUE(pooled.failed_cells.empty());
  EXPECT_TRUE(coordinated.failed_cells.empty());
  EXPECT_TRUE(merged.failed_cells.empty());
  EXPECT_EQ(pooled.combined_fingerprint, grid.run(1).combined_fingerprint);
  EXPECT_EQ(coordinated.combined_fingerprint, pooled.combined_fingerprint);
  EXPECT_EQ(merged.combined_fingerprint, pooled.combined_fingerprint);
}

// ====================================================================
// Replay grids out-of-process: detection::ReplayGridJob over recorded
// trace files. Same fault machinery, same invariant — the merged
// fingerprint is byte-identical to in-process ReplayGrid::run.
// ====================================================================

detection::ReplayGridConfig tiny_replay_config() {
  detection::ReplayGridConfig config;
  config.replay_seeds = {1, 2};
  config.replay.benign_web = 40;
  config.replay.benign_tor = 10;
  config.flow_size_cv = {0.25, 0.5};
  config.flow_gap_cv = {0.45, 1.0};
  config.tor_min_flows = {1, 10};
  config.threads = 2;
  return config;
}

/// Records one tiny campaign as a streamed trace file under `dir`.
std::string record_tiny_trace(const std::string& dir, std::uint64_t seed) {
  fs::create_directories(dir);
  const std::string path =
      dir + "/campaign_" + std::to_string(seed) + ".otrace";
  trace_io::TraceWriter writer(path);
  CampaignEngine engine(tiny_spec(seed), writer, &writer);
  engine.run();
  writer.finish();
  return path;
}

struct RecordedCampaigns {
  std::vector<std::unique_ptr<trace_io::TraceReader>> readers;
  std::vector<const TraceSource*> sources;
};

RecordedCampaigns open_tiny_traces(const std::string& dir,
                                   std::size_t count) {
  RecordedCampaigns campaigns;
  for (std::size_t seed = 0; seed < count; ++seed) {
    campaigns.readers.push_back(std::make_unique<trace_io::TraceReader>(
        record_tiny_trace(dir, seed)));
    campaigns.sources.push_back(campaigns.readers.back().get());
  }
  return campaigns;
}

detection::ReplayGridReport coordinate_replay(
    const detection::ReplayGrid& grid,
    const std::vector<const TraceSource*>& campaigns,
    const GridCoordinatorConfig& config) {
  detection::ReplayGridJob job(grid, campaigns);
  return job.report(coordinate_job(job, config));
}

void run_replay_shard(const detection::ReplayGrid& grid,
                      const std::vector<const TraceSource*>& campaigns,
                      const std::vector<CellAssignment>& assignments,
                      const std::string& dir) {
  detection::ReplayGridJob job(grid, campaigns);
  run_job_worker_cells(job, assignments, dir);
}

/// Merge-only fold: the job holds no trace sources at all.
detection::ReplayGridReport merge_replay(const detection::ReplayGrid& grid,
                                         std::size_t campaign_count,
                                         const std::string& dir) {
  detection::ReplayGridJob job(
      grid, std::vector<const TraceSource*>(campaign_count));
  return job.report(merge_job_frames(job, dir));
}

TEST(ReplayProcess, CrashInjectedCoordinatorMatchesInProcessFingerprint) {
  const std::string dir = fresh_dir("replay_match");
  const RecordedCampaigns campaigns = open_tiny_traces(dir, 2);
  const detection::ReplayGrid grid(tiny_replay_config());
  const detection::ReplayGridReport in_process =
      grid.run(campaigns.sources);

  GridCoordinatorConfig config = fast_config(dir + "/results");
  config.workers = 4;
  config.faults = FaultPlan::parse("crash@1:0");
  const detection::ReplayGridReport merged =
      coordinate_replay(grid, campaigns.sources, config);

  EXPECT_TRUE(merged.failed_cells.empty());
  EXPECT_GE(merged.retries, 1u);
  EXPECT_EQ(merged.resumed_cells, 0u);
  ASSERT_EQ(merged.points.size(), in_process.points.size());
  // Byte-identical points at every index, not just an equal digest.
  for (std::size_t i = 0; i < merged.points.size(); ++i)
    EXPECT_EQ(codec::encode(merged.points[i]),
              codec::encode(in_process.points[i]));
  EXPECT_EQ(merged.fingerprint, in_process.fingerprint);
}

TEST(ReplayProcess, ResumeReRunsOnlyTheCorruptedFrame) {
  const std::string dir = fresh_dir("replay_repair");
  const RecordedCampaigns campaigns = open_tiny_traces(dir, 2);
  const detection::ReplayGrid grid(tiny_replay_config());
  const std::string results = dir + "/results";

  const detection::ReplayGridReport first =
      coordinate_replay(grid, campaigns.sources, fast_config(results));
  const std::size_t cells = grid.cell_count(campaigns.sources.size());
  std::vector<Bytes> before;
  for (std::uint64_t i = 0; i < cells; ++i)
    before.push_back(read_file_bytes(
        results + "/" + detection::replay_cell_frame_filename(i)));
  Bytes corrupt = before[2];
  corrupt[wire::kFrameHeaderBytes + 10] ^= 0x40;
  write_file_atomic(
      results + "/" + detection::replay_cell_frame_filename(2), corrupt);

  const detection::ReplayGridReport repaired =
      coordinate_replay(grid, campaigns.sources, fast_config(results));
  EXPECT_EQ(repaired.resumed_cells, cells - 1);
  EXPECT_TRUE(repaired.failed_cells.empty());
  EXPECT_EQ(repaired.fingerprint, first.fingerprint);
  for (std::uint64_t i = 0; i < cells; ++i) {
    const Bytes after = read_file_bytes(
        results + "/" + detection::replay_cell_frame_filename(i));
    if (i == 2) {
      EXPECT_NE(after, corrupt);
      // The re-run reproduces every deterministic field; only the
      // informational wall clock may differ.
      const detection::ReplayGridCell rerun =
          wire::decode_frame<detection::ReplayGridCell>(after);
      const detection::ReplayGridCell original =
          wire::decode_frame<detection::ReplayGridCell>(before[2]);
      EXPECT_EQ(rerun.cell_index, original.cell_index);
      EXPECT_EQ(rerun.campaign, original.campaign);
      EXPECT_EQ(rerun.replay_seed, original.replay_seed);
      ASSERT_EQ(rerun.points.size(), original.points.size());
      for (std::size_t k = 0; k < rerun.points.size(); ++k)
        EXPECT_EQ(codec::encode(rerun.points[k]),
                  codec::encode(original.points[k]));
    } else {
      EXPECT_EQ(after, before[i]) << "frame " << i << " was rewritten";
    }
  }
}

TEST(ReplayProcess, HandShardedWorkersThenMergeOnlyReproduceTheRun) {
  // The multi-host recipe: two disjoint --cells shards over the same
  // shared trace file, then a merge-only pass that executes nothing.
  const std::string dir = fresh_dir("replay_shards");
  const RecordedCampaigns campaigns = open_tiny_traces(dir, 2);
  const detection::ReplayGrid grid(tiny_replay_config());
  const std::string results = dir + "/results";

  run_replay_shard(grid, campaigns.sources, {{0, 0}, {2, 0}}, results);
  run_replay_shard(grid, campaigns.sources, {{1, 0}, {3, 0}}, results);
  const detection::ReplayGridReport merged =
      merge_replay(grid, campaigns.sources.size(), results);

  EXPECT_TRUE(merged.failed_cells.empty());
  EXPECT_EQ(merged.fingerprint, grid.run(campaigns.sources).fingerprint);
  EXPECT_EQ(detection::combine_replay_points(merged.points),
            merged.fingerprint);
}

TEST(ReplayProcess, MergeReportsMissingFramesWithoutExecuting) {
  const std::string dir = fresh_dir("replay_partial");
  const RecordedCampaigns campaigns = open_tiny_traces(dir, 1);
  const detection::ReplayGrid grid(tiny_replay_config());
  const std::string results = dir + "/results";

  run_replay_shard(grid, campaigns.sources, {{1, 0}}, results);
  const detection::ReplayGridReport merged =
      merge_replay(grid, campaigns.sources.size(), results);

  ASSERT_EQ(merged.failed_cells.size(), 1u);
  EXPECT_EQ(merged.failed_cells[0].cell_index, 0u);
  EXPECT_EQ(merged.failed_cells[0].attempts, 0u);
  EXPECT_EQ(merged.failed_cells[0].error, "no result frame");
  // The partial fingerprint covers exactly the completed cell's slice
  // of the in-process grid, in order.
  const detection::ReplayGridReport in_process =
      grid.run(campaigns.sources);
  const std::size_t ppc = grid.points_per_cell();
  const std::vector<detection::ReplayGridPoint> survivors(
      in_process.points.begin() + static_cast<std::ptrdiff_t>(ppc),
      in_process.points.begin() + static_cast<std::ptrdiff_t>(2 * ppc));
  EXPECT_EQ(merged.fingerprint,
            detection::combine_replay_points(survivors));
}

TEST(ReplayProcess, PermanentCrashQuarantinesTheReplayCell) {
  const std::string dir = fresh_dir("replay_quarantine");
  const RecordedCampaigns campaigns = open_tiny_traces(dir, 1);
  const detection::ReplayGrid grid(tiny_replay_config());

  GridCoordinatorConfig config = fast_config(dir + "/results");
  config.faults = FaultPlan::parse("crash@1:0;crash@1:1;crash@1:2");
  const detection::ReplayGridReport merged =
      coordinate_replay(grid, campaigns.sources, config);

  ASSERT_EQ(merged.failed_cells.size(), 1u);
  EXPECT_EQ(merged.failed_cells[0].cell_index, 1u);
  EXPECT_EQ(merged.failed_cells[0].label, "campaign=0,replay_seed=2");
  EXPECT_EQ(merged.failed_cells[0].seed, 2u);
  EXPECT_EQ(merged.failed_cells[0].attempts, config.max_attempts);
  // Graceful degradation: the merge covers exactly cell 0's slice.
  const detection::ReplayGridReport in_process =
      grid.run(campaigns.sources);
  const std::size_t ppc = grid.points_per_cell();
  const std::vector<detection::ReplayGridPoint> survivors(
      in_process.points.begin(),
      in_process.points.begin() + static_cast<std::ptrdiff_t>(ppc));
  EXPECT_EQ(merged.points.size(), ppc);
  EXPECT_EQ(merged.fingerprint,
            detection::combine_replay_points(survivors));
}

TEST(ReplayProcess, EveryTransportGivesTheSameReplayFingerprint) {
  const std::string dir = fresh_dir("replay_transports");
  const RecordedCampaigns campaigns = open_tiny_traces(dir, 2);
  const detection::ReplayGrid grid(tiny_replay_config());
  const std::string results = dir + "/results";
  detection::ReplayGridJob job(grid, campaigns.sources);
  const detection::ReplayGridReport pooled = job.report(run_job(job, 2));
  const detection::ReplayGridReport coordinated =
      job.report(coordinate_job(job, fast_config(results)));
  const detection::ReplayGridReport merged =
      merge_replay(grid, campaigns.sources.size(), results);
  EXPECT_TRUE(coordinated.failed_cells.empty());
  EXPECT_TRUE(merged.failed_cells.empty());
  EXPECT_EQ(pooled.fingerprint, grid.run(campaigns.sources).fingerprint);
  EXPECT_EQ(coordinated.fingerprint, pooled.fingerprint);
  EXPECT_EQ(merged.fingerprint, pooled.fingerprint);
}

TEST(ReplayProcess, MergeOnlyJobRefusesToExecute) {
  const detection::ReplayGrid grid(tiny_replay_config());
  const detection::ReplayGridJob job(grid, {nullptr});
  EXPECT_EQ(job.size(), 2u);
  EXPECT_THROW(job.run_cell(0), ContractViolation);
}

TEST(ReplayProcess, TruncatedTraceFailsAtOpenNotInAWorker) {
  const std::string dir = fresh_dir("replay_truncated");
  const std::string path = record_tiny_trace(dir, 0);
  const Bytes whole = read_file_bytes(path);
  write_file_atomic(path,
                    Bytes(whole.begin(), whole.end() - 16));  // torn tail
  EXPECT_THROW(trace_io::TraceReader reader(path), wire::WireError);
}

}  // namespace
}  // namespace onion::scenario

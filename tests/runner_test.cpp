// CampaignGrid tests: the sharding determinism contract (identical
// per-cell and aggregated fingerprints for 1 vs N threads and for
// shuffled cell orders), agreement with a directly-run engine, and the
// seed-sweep builder. Then the transport contract of run_job and
// merge_job_frames on a test-local CellJob (no fork, so these stay in
// the tsan tier; tests/gridproc_test.cpp covers coordinate_job).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "common/bytes.hpp"
#include "common/check.hpp"
#include "scenario/runner.hpp"

namespace onion::scenario {
namespace {

ScenarioSpec small_spec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
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

CampaignGrid small_grid() {
  CampaignGrid grid;
  for (std::uint64_t seed = 100; seed < 106; ++seed)
    grid.add("cell" + std::to_string(seed), small_spec(seed));
  return grid;
}

TEST(CampaignGrid, OneThreadAndManyThreadsAgreeByteForByte) {
  const CampaignGrid grid = small_grid();
  const GridReport serial = grid.run(/*threads=*/1);
  const GridReport parallel = grid.run(/*threads=*/4);
  EXPECT_EQ(serial.threads_used, 1u);
  EXPECT_EQ(parallel.threads_used, 4u);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].label, parallel.cells[i].label);
    EXPECT_EQ(serial.cells[i].fingerprint, parallel.cells[i].fingerprint);
    ASSERT_EQ(serial.cells[i].series.size(),
              parallel.cells[i].series.size());
    for (std::size_t k = 0; k < serial.cells[i].series.size(); ++k)
      EXPECT_EQ(codec::encode(serial.cells[i].series[k]),
                codec::encode(parallel.cells[i].series[k]));
  }
  EXPECT_EQ(serial.combined_fingerprint, parallel.combined_fingerprint);
}

TEST(CampaignGrid, ShuffledCellOrderKeepsTheAggregateFingerprint) {
  CampaignGrid forward;
  CampaignGrid backward;
  for (std::uint64_t seed = 100; seed < 106; ++seed)
    forward.add("cell" + std::to_string(seed), small_spec(seed));
  for (std::uint64_t seed = 105; seed >= 100; --seed)
    backward.add("cell" + std::to_string(seed), small_spec(seed));
  const GridReport a = forward.run(2);
  const GridReport b = backward.run(3);
  // Cells land at their grid index, so the per-cell results are simply
  // reversed; the combined fingerprint hashes the sorted digest set and
  // must not move.
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const CellResult& mirrored = b.cells[b.cells.size() - 1 - i];
    EXPECT_EQ(a.cells[i].label, mirrored.label);
    EXPECT_EQ(a.cells[i].fingerprint, mirrored.fingerprint);
  }
  EXPECT_EQ(a.combined_fingerprint, b.combined_fingerprint);
}

TEST(CampaignGrid, CellsMatchADirectlyRunEngine) {
  CampaignGrid grid;
  grid.add("direct", small_spec(7));
  const GridReport report = grid.run(2);
  HashSink direct;
  CampaignEngine engine(small_spec(7), direct);
  engine.run();
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_EQ(report.cells[0].fingerprint, direct.hex_digest());
  EXPECT_EQ(report.cells[0].series.size(), direct.count());
  EXPECT_EQ(report.cells[0].counters.joins, engine.counters().joins);
  EXPECT_EQ(report.cells[0].events_executed, engine.events_executed());
}

TEST(CampaignGrid, SeedSweepBuildsConsecutiveSeeds) {
  const CampaignGrid grid = CampaignGrid::seed_sweep(small_spec(0), 40, 4);
  ASSERT_EQ(grid.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(grid.cells()[i].spec.seed, 40u + i);
    EXPECT_EQ(grid.cells()[i].label, "seed=" + std::to_string(40 + i));
  }
  const GridReport report = grid.run();
  // Different seeds diverge: all four fingerprints are distinct.
  std::vector<std::string> digests;
  for (const CellResult& cell : report.cells)
    digests.push_back(cell.fingerprint);
  std::sort(digests.begin(), digests.end());
  EXPECT_EQ(std::unique(digests.begin(), digests.end()), digests.end());
}

TEST(CampaignGrid, EmptyGridProducesAnEmptyDeterministicReport) {
  const CampaignGrid grid;
  const GridReport a = grid.run(3);
  const GridReport b = grid.run(1);
  EXPECT_TRUE(a.cells.empty());
  EXPECT_EQ(a.combined_fingerprint, b.combined_fingerprint);
  EXPECT_FALSE(a.combined_fingerprint.empty());  // SHA-256 of nothing
}

TEST(CampaignGrid, CaptureModeQuarantinesAThrowingCellAndFinishesTheRest) {
  // metrics.period == 0 trips the engine's precondition
  // (ONION_EXPECTS(spec_.metrics.period > 0)) — a deterministic way to
  // make exactly one cell throw.
  CampaignGrid grid;
  for (std::uint64_t seed = 100; seed < 104; ++seed)
    grid.add("cell" + std::to_string(seed), small_spec(seed));
  ScenarioSpec broken = small_spec(104);
  broken.metrics.period = 0;
  grid.add("broken", broken);

  const GridReport report = grid.run(2, ErrorMode::kCapture);
  ASSERT_EQ(report.cells.size(), 5u);
  ASSERT_EQ(report.failed_cells.size(), 1u);
  EXPECT_EQ(report.failed_cells[0].cell_index, 4u);
  EXPECT_EQ(report.failed_cells[0].label, "broken");
  EXPECT_EQ(report.failed_cells[0].seed, 104u);
  EXPECT_EQ(report.failed_cells[0].attempts, 1u);
  EXPECT_FALSE(report.failed_cells[0].error.empty());
  // The failed slot keeps its place with no fingerprint; every healthy
  // cell completed.
  EXPECT_TRUE(report.cells[4].fingerprint.empty());
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_FALSE(report.cells[i].fingerprint.empty());
  // Graceful degradation is exact: the combined fingerprint equals that
  // of the grid without the broken cell.
  CampaignGrid healthy;
  for (std::uint64_t seed = 100; seed < 104; ++seed)
    healthy.add("cell" + std::to_string(seed), small_spec(seed));
  EXPECT_EQ(report.combined_fingerprint,
            healthy.run(2).combined_fingerprint);
}

TEST(CampaignGrid, PropagateModeStillThrows) {
  CampaignGrid grid;
  ScenarioSpec broken = small_spec(1);
  broken.metrics.period = 0;
  grid.add("broken", broken);
  EXPECT_THROW(grid.run(1), ContractViolation);
  EXPECT_THROW(grid.run(1, ErrorMode::kPropagate), ContractViolation);
}

TEST(CampaignGrid, MoreThreadsThanCellsIsClamped) {
  CampaignGrid grid;
  grid.add("only", small_spec(3));
  const GridReport report = grid.run(16);
  EXPECT_EQ(report.threads_used, 1u);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_FALSE(report.cells[0].fingerprint.empty());
}

// --------------------------------------------------------------------
// Transport contract on a fake CellJob
// --------------------------------------------------------------------

/// Cell i's frame is i as one u64. Cells in `throwing` throw from
/// run_cell; cells in `misidentified` emit another cell's index, which
/// accept_frame rejects. accept_frame also records whether it was ever
/// entered concurrently.
class FakeJob final : public CellJob {
 public:
  explicit FakeJob(std::size_t size) : accepted(size, false) {}

  std::size_t size() const override { return accepted.size(); }
  std::string frame_filename(std::uint64_t cell_index) const override {
    return cell_frame_filename(cell_index);
  }
  std::string cell_label(std::uint64_t cell_index) const override {
    return "fake" + std::to_string(cell_index);
  }
  std::uint64_t cell_seed(std::uint64_t cell_index) const override {
    return 1000 + cell_index;
  }
  Bytes run_cell(std::uint64_t cell_index) const override {
    if (throwing.count(cell_index) != 0)
      throw std::runtime_error("cell " + std::to_string(cell_index) +
                               " blew up");
    Bytes frame;
    put_u64(frame, misidentified.count(cell_index) != 0 ? cell_index + 100
                                                        : cell_index);
    return frame;
  }
  bool accept_frame(std::uint64_t cell_index, BytesView framed,
                    std::string& error) override {
    if (in_accept.exchange(true)) concurrent_accept = true;
    ByteReader reader(framed);
    const std::uint64_t held = reader.u64();
    const bool ok = held == cell_index;
    if (ok)
      accepted[cell_index] = true;
    else
      error = "holds cell " + std::to_string(held);
    in_accept = false;
    return ok;
  }

  std::set<std::uint64_t> throwing;
  std::set<std::uint64_t> misidentified;
  std::vector<bool> accepted;
  std::atomic<bool> in_accept{false};
  bool concurrent_accept = false;
};

TEST(GridTransport, RunJobCapturesBothFailureKindsWithOneAttempt) {
  FakeJob job(8);
  job.throwing = {2};
  job.misidentified = {5};
  const GridOutcome outcome = run_job(job, 4, ErrorMode::kCapture);
  EXPECT_EQ(outcome.workers, 4u);
  EXPECT_FALSE(job.concurrent_accept);
  ASSERT_EQ(outcome.failed_cells.size(), 2u);
  EXPECT_EQ(outcome.failed_cells[0].cell_index, 2u);
  EXPECT_EQ(outcome.failed_cells[0].label, "fake2");
  EXPECT_EQ(outcome.failed_cells[0].seed, 1002u);
  EXPECT_EQ(outcome.failed_cells[0].attempts, 1u);
  EXPECT_EQ(outcome.failed_cells[0].error, "cell 2 blew up");
  EXPECT_EQ(outcome.failed_cells[1].cell_index, 5u);
  EXPECT_EQ(outcome.failed_cells[1].attempts, 1u);
  EXPECT_EQ(outcome.failed_cells[1].error, "holds cell 105");
  EXPECT_EQ(outcome.retries, 0u);
  EXPECT_EQ(outcome.resumed_cells, 0u);
  for (std::size_t i = 0; i < job.size(); ++i)
    EXPECT_EQ(job.accepted[i], i != 2 && i != 5) << "cell " << i;
}

TEST(GridTransport, RunJobPropagatesBothFailureKinds) {
  FakeJob throwing(4);
  throwing.throwing = {1};
  EXPECT_THROW(run_job(throwing, 2), std::runtime_error);
  FakeJob misidentified(4);
  misidentified.misidentified = {3};
  EXPECT_THROW(run_job(misidentified, 2, ErrorMode::kPropagate),
               std::runtime_error);
  FakeJob healthy(4);
  EXPECT_TRUE(run_job(healthy, 2).failed_cells.empty());
  EXPECT_EQ(healthy.accepted, std::vector<bool>(4, true));
}

TEST(GridTransport, MergeOverAPartialDirectoryReportsMissingCells) {
  const std::string dir = ::testing::TempDir() + "runner_fake_merge";
  std::filesystem::remove_all(dir);
  FakeJob job(5);
  job.misidentified = {3};
  run_job_worker_cells(job, {{0, 0}, {3, 0}, {4, 0}}, dir);
  const GridOutcome outcome = merge_job_frames(job, dir);
  ASSERT_EQ(outcome.failed_cells.size(), 3u);
  EXPECT_EQ(outcome.failed_cells[0].cell_index, 1u);
  EXPECT_EQ(outcome.failed_cells[0].error, "no result frame");
  EXPECT_EQ(outcome.failed_cells[1].cell_index, 2u);
  EXPECT_EQ(outcome.failed_cells[2].cell_index, 3u);
  EXPECT_EQ(outcome.failed_cells[2].error, "holds cell 103");
  for (const FailedCell& f : outcome.failed_cells) {
    EXPECT_EQ(f.attempts, 0u);
    EXPECT_EQ(f.label, "fake" + std::to_string(f.cell_index));
  }
  EXPECT_EQ(job.accepted, (std::vector<bool>{true, false, false, false, true}));
}

}  // namespace
}  // namespace onion::scenario

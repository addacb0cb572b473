// Grid runs: a batch of independent cells (campaign seed sweeps,
// policy ablations, replay × seed scoring sweeps) executed by one of
// three transports, each written once and generic over CellJob — the
// cell-kind face that runs one cell into an encoded wire frame
// (scenario/wire.hpp) and validates + retains a decoded one:
//
//   run_job           the in-process thread pool (common/parallel.hpp);
//                     every cell goes run_cell -> accept_frame exactly
//                     as a worker frame would, so capture semantics
//                     (ErrorMode) are those of the process transport.
//   coordinate_job    the crash-tolerant coordinator: forked workers
//                     over a results directory, per-cell timeouts,
//                     bounded exponential-backoff retries, quarantine,
//                     checkpoint/resume over already-valid frames.
//   merge_job_frames  the merge-only fold over whatever valid frames a
//                     results directory holds; executes nothing.
//
// All three return one GridOutcome (failed cells, retry / resume
// bookkeeping); the job's report(outcome) is the only code that folds
// it with the accepted results into the job's own report. Two jobs
// exist: CampaignCellJob here (CampaignGrid::run is
// job.report(run_job(...))) and detection::ReplayGridJob.
//
// Results land at the cell's grid index, and a CampaignGrid's combined
// fingerprint hashes the *sorted* per-cell digests of the completed
// cells, so it is invariant to thread count, worker count, partition
// shape, cell order, and retry history (tests/runner_test.cpp and
// tests/gridproc_test.cpp, which injects every failure mode
// deterministically via FaultPlan).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "scenario/engine.hpp"
#include "scenario/snapshot.hpp"
#include "scenario/spec.hpp"

namespace onion::scenario {

/// One campaign to run: a label for reports plus the full spec.
struct GridCell {
  std::string label;
  ScenarioSpec spec;
};

/// Outcome of one cell. An empty `fingerprint` marks a cell that never
/// completed (quarantined / captured error) — a completed cell always
/// carries the 64-hex-char digest, even for a zero-snapshot stream.
/// wall_seconds is informational only (see scenario/wire.hpp for the
/// one-place contract).
struct CellResult {
  std::string label;
  std::uint64_t seed = 0;
  std::string fingerprint;  // hex SHA-256 of the cell's snapshot stream
  std::vector<MetricsSnapshot> series;  // the cell's MemorySink capture
  CampaignCounters counters;
  std::uint64_t events_executed = 0;
  double wall_seconds = 0.0;

  /// Frame tag "OBCELL\x00\x01" (scenario/wire.hpp).
  static constexpr std::uint64_t kFrameMagic = 0x4f4243454c4c0001ull;
  /// Wire layout (common/codec.hpp), in encoding order. Snapshots are
  /// framed: their encoding is not self-delimiting (the wave block is
  /// trailing).
  static auto fields(auto& s, auto&& v) {
    return v("CellResult", codec::str("label", s.label),
             codec::u64("seed", s.seed),
             codec::str("fingerprint", s.fingerprint),
             codec::framed("series", s.series),
             codec::nested("counters", s.counters),
             codec::u64("events_executed", s.events_executed),
             codec::f64("wall_seconds", s.wall_seconds));
  }
};

/// A cell that never produced an accepted frame (see GridOutcome for
/// what `attempts` counts per transport); `error` is the last
/// failure's description.
struct FailedCell {
  std::uint64_t cell_index = 0;
  std::string label;
  std::uint64_t seed = 0;
  std::uint64_t attempts = 0;
  std::string error;

  /// Wire layout (common/codec.hpp), in encoding order.
  static auto fields(auto& s, auto&& v) {
    return v("FailedCell", codec::u64("cell_index", s.cell_index),
             codec::str("label", s.label), codec::u64("seed", s.seed),
             codec::u64("attempts", s.attempts),
             codec::str("error", s.error));
  }
};

/// Aggregated outcome of a grid run.
struct GridReport {
  std::vector<CellResult> cells;  // grid order, not completion order
  /// Cells that never produced a valid result, in cell-index order. The
  /// grid degrades gracefully: `cells` keeps its full size (failed slots
  /// carry label/seed but an empty fingerprint) and the combined
  /// fingerprint covers exactly the completed cells.
  std::vector<FailedCell> failed_cells;
  /// SHA-256 over the lexicographically sorted fingerprints of the
  /// *completed* cells: equal for any thread/worker count, any cell
  /// ordering, any partition shape, and any retry history of the same
  /// set of completed campaigns.
  std::string combined_fingerprint;
  std::uint64_t threads_used = 0;   // GridOutcome::workers
  double wall_seconds = 0.0;
  /// Process-mode bookkeeping (0 for in-process runs); informational
  /// only, like wall_seconds.
  std::uint64_t retries = 0;        // cell re-executions scheduled
  std::uint64_t resumed_cells = 0;  // valid frames skipped on resume

  /// Frame tag "OBGRID\x00\x01" (scenario/wire.hpp).
  static constexpr std::uint64_t kFrameMagic = 0x4f42475249440001ull;
  /// Wire layout (common/codec.hpp), in encoding order.
  static auto fields(auto& s, auto&& v) {
    return v("GridReport", codec::framed("cells", s.cells),
             codec::list("failed_cells", s.failed_cells),
             codec::str("combined_fingerprint", s.combined_fingerprint),
             codec::u64("threads_used", s.threads_used),
             codec::f64("wall_seconds", s.wall_seconds),
             codec::u64("retries", s.retries),
             codec::u64("resumed_cells", s.resumed_cells));
  }
};

/// The combined fingerprint over the completed cells of `cells` (empty
/// fingerprints — failed slots — are skipped). Exposed so merge tools
/// and tests can recompute the invariant from any partition.
std::string combine_cell_fingerprints(const std::vector<CellResult>& cells);

/// What run_job does when a cell throws or its frame is rejected.
enum class ErrorMode {
  kPropagate,  // rethrow after the pool drains (the historical contract)
  kCapture,    // record into failed_cells, complete the remaining cells
};

/// A batch of independent campaigns and the shard-and-aggregate runner.
class CampaignGrid {
 public:
  CampaignGrid() = default;

  void add(std::string label, const ScenarioSpec& spec) {
    cells_.push_back({std::move(label), spec});
  }

  /// `count` copies of `base` with seeds first_seed, first_seed+1, ... —
  /// the bread-and-butter variance sweep.
  static CampaignGrid seed_sweep(const ScenarioSpec& base,
                                 std::uint64_t first_seed,
                                 std::size_t count);

  std::size_t size() const { return cells_.size(); }
  const std::vector<GridCell>& cells() const { return cells_; }

  /// Runs every cell in-process: CampaignCellJob over run_job.
  /// `threads` == 0 uses the hardware concurrency; one engine per cell.
  GridReport run(std::size_t threads = 0,
                 ErrorMode errors = ErrorMode::kPropagate) const;

 private:
  std::vector<GridCell> cells_;
};

// --------------------------------------------------------------------
// Transports: deterministic fault injection, the cell-kind interface,
// and the three runners.
// --------------------------------------------------------------------

/// One scripted failure: at execution `attempt` (0-based) of grid cell
/// `cell_index`, the worker misbehaves in `kind`'s way. Because the
/// trigger is (cell, attempt) — not wall clock or pid — every failure
/// path is exercised by deterministic tier-1 tests rather than luck.
struct FaultSpec {
  enum class Kind {
    kCrash,    // _exit before writing the frame
    kHang,     // block past any timeout until killed
    kCorrupt,  // write a frame with a flipped payload bit
  };
  Kind kind = Kind::kCrash;
  std::uint64_t cell_index = 0;
  std::uint64_t attempt = 0;
};

/// A seeded plan of scripted faults, threaded through workers either
/// in-memory (forked children) or as a flag / the ONION_GRID_FAULTS
/// env var (tools/gridworker). Text form, round-tripped by
/// parse/to_string: `crash@2:0;hang@5:1;corrupt@7:0` — kind@cell:attempt.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Parses the text form; throws std::invalid_argument with the
  /// offending token on malformed input. Empty text => empty plan.
  static FaultPlan parse(std::string_view text);
  std::string to_string() const;

  void add(FaultSpec fault) { faults_.push_back(fault); }
  bool empty() const { return faults_.empty(); }

  /// The scripted fault for this (cell, attempt) execution, or nullptr.
  const FaultSpec* match(std::uint64_t cell_index,
                         std::uint64_t attempt) const;

 private:
  std::vector<FaultSpec> faults_;
};

/// One unit of worker work: run grid cell `cell_index`; `attempt` is the
/// coordinator's retry counter for that cell (0 first), consumed only by
/// FaultPlan matching — results are attempt-invariant by construction.
struct CellAssignment {
  std::uint64_t cell_index = 0;
  std::uint64_t attempt = 0;
};

/// The filename a cell's result frame lands under in a results
/// directory ("cell_000042.frame").
std::string cell_frame_filename(std::uint64_t cell_index);

/// One cell kind as the transports see it: execute a cell into its
/// complete encoded wire frame, and decode + identity-check a frame,
/// retaining the result for the job's own report.
class CellJob {
 public:
  virtual ~CellJob() = default;

  /// Number of cells in the grid.
  virtual std::size_t size() const = 0;
  /// The result-frame filename for one cell inside a results directory.
  virtual std::string frame_filename(std::uint64_t cell_index) const = 0;
  /// Cell identity for quarantine reports.
  virtual std::string cell_label(std::uint64_t cell_index) const = 0;
  virtual std::uint64_t cell_seed(std::uint64_t cell_index) const = 0;
  /// Executes the cell and returns its complete encoded wire frame.
  /// Runs concurrently on pool threads and in forked children, so it
  /// must not mutate state.
  virtual Bytes run_cell(std::uint64_t cell_index) const = 0;
  /// Decodes + identity-checks a candidate frame, retaining the result
  /// on success. On failure returns false with `error` naming the
  /// defect; decode failures may also surface as exceptions (every
  /// transport treats a throw as rejection). Never called concurrently.
  virtual bool accept_frame(std::uint64_t cell_index, BytesView framed,
                            std::string& error) = 0;
};

/// Bookkeeping of one grid run by any transport, cell-kind agnostic;
/// the job's own report carries the accepted results. Informational
/// only, like wall_seconds: none of it enters a fingerprint.
struct GridOutcome {
  /// Cells that never produced an accepted frame, cell-index order.
  /// `attempts` is 1 for run_job, the executions tried for
  /// coordinate_job, and 0 for merge_job_frames (nothing executed).
  std::vector<FailedCell> failed_cells;
  std::uint64_t retries = 0;        // cell re-executions scheduled
  std::uint64_t resumed_cells = 0;  // valid frames skipped on resume
  std::uint64_t workers = 0;        // pool threads used / workers configured
  double wall_seconds = 0.0;
};

/// In-process transport: runs every cell of `job` on a thread pool
/// (`threads` == 0 uses the hardware concurrency, clamped to the cell
/// count). Frames land by cell index and are accepted afterwards in
/// one serial loop, so accept_frame never runs concurrently. Under
/// kPropagate a throwing cell is rethrown after the pool drains and a
/// rejected frame throws std::runtime_error; under kCapture both land
/// in failed_cells with attempts 1 and every other cell completes.
GridOutcome run_job(CellJob& job, std::size_t threads,
                    ErrorMode errors = ErrorMode::kPropagate);

/// The worker loop of the process transport: runs each assigned cell
/// of `job` in order and atomically writes its wire frame (temp +
/// rename) into `results_dir`. Shared by coordinate_job's forked
/// children and the tools/gridworker --worker mode, so both execute
/// the identical code path. Scripted faults fire when (cell, attempt)
/// matches `faults`: kCrash calls _exit, kHang blocks until killed,
/// kCorrupt writes a frame whose digest cannot verify. Throws on real
/// I/O errors.
void run_job_worker_cells(const CellJob& job,
                          const std::vector<CellAssignment>& assignments,
                          const std::string& results_dir,
                          const FaultPlan& faults = {});

/// Knobs for the crash-tolerant process coordinator. Defaults are tuned
/// for real grids; tests shrink the timeouts to keep failure paths fast.
struct GridCoordinatorConfig {
  std::string results_dir;     // created if missing; also the checkpoint
  std::size_t workers = 4;     // forked processes per round (>= 1)
  /// Executions allowed per cell before quarantine (>= 1).
  std::uint64_t max_attempts = 3;
  /// Per-cell wall-clock timeout: a worker that goes this long without
  /// landing its next frame is SIGKILLed and the unfinished cells retry.
  double cell_timeout_seconds = 120.0;
  /// Bounded exponential backoff between retry rounds:
  /// min(base * 2^round, max) seconds.
  double backoff_base_seconds = 0.05;
  double backoff_max_seconds = 2.0;
  double poll_interval_seconds = 0.01;  // results-dir progress polling
  /// Deterministic fault injection, inherited by forked workers.
  FaultPlan faults;
};

/// Validates the coordinator knobs: results_dir non-empty, workers and
/// max_attempts >= 1, and every duration (timeout, backoff base and
/// max, poll interval) finite and > 0 — the same rule the gridworker
/// CLI applies to its flags. Throws ContractViolation on a bad config.
void validate_coordinator_config(const GridCoordinatorConfig& config);

/// Process transport: fans `job` across forked worker processes over
/// the results-directory file transport, after validating `config`
/// (so misconfiguration fails before any fork).
///
///   - an existing results directory is a checkpoint: frames the job
///     accepts are resumed, not re-run; invalid leftovers are removed;
///   - each round partitions the outstanding cells round-robin across
///     up to `workers` children running run_job_worker_cells;
///   - a worker stuck past cell_timeout_seconds without landing its
///     next frame is killed and its unfinished cells rejoin the queue;
///   - failed / timed-out / corrupt cells retry with bounded
///     exponential backoff up to max_attempts executions, then
///     quarantine into failed_cells (graceful degradation: completed
///     cells still merge and golden-gate).
GridOutcome coordinate_job(CellJob& job, const GridCoordinatorConfig& config);

/// Merge-only transport: offers every cell's frame in `results_dir` to
/// the job without executing anything — the finish step for grids
/// sharded by hand across hosts (disjoint --cells over a shared
/// directory). Missing or rejected cells land in failed_cells with
/// attempts 0 and the rejection reason.
GridOutcome merge_job_frames(CellJob& job, const std::string& results_dir);

/// A CampaignGrid as a CellJob: frames are encoded CellResults,
/// identity is (label, seed), and accepted results collect by grid
/// index.
class CampaignCellJob final : public CellJob {
 public:
  explicit CampaignCellJob(const CampaignGrid& grid);

  std::size_t size() const override { return grid_.size(); }
  std::string frame_filename(std::uint64_t cell_index) const override;
  std::string cell_label(std::uint64_t cell_index) const override;
  std::uint64_t cell_seed(std::uint64_t cell_index) const override;
  Bytes run_cell(std::uint64_t cell_index) const override;
  bool accept_frame(std::uint64_t cell_index, BytesView framed,
                    std::string& error) override;

  /// Folds `outcome` and the accepted results (moved out) into a
  /// GridReport: failed slots keep their label and seed with an empty
  /// fingerprint, and the combined fingerprint covers exactly the
  /// completed cells.
  GridReport report(GridOutcome outcome);

 private:
  const CampaignGrid& grid_;
  std::vector<CellResult> results_;
};

}  // namespace onion::scenario

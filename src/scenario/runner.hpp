// Multi-campaign sharding: a CampaignGrid fans a vector of ScenarioSpec
// cells (seed sweeps, policy ablations, size ladders) across a
// std::thread pool — one CampaignEngine per cell, nothing shared but an
// atomic work index — and aggregates the per-cell HashSink fingerprints
// and MemorySink series into a single GridReport. Results land at the
// cell's grid index regardless of which thread ran it when, and the
// combined fingerprint hashes the *sorted* per-cell digests, so the
// report is deterministic across thread counts and invariant to cell
// order (tests/runner_test.cpp enforces both).
//
// Past one process, GridCoordinator runs the same grid across forked
// worker processes with a results-directory file transport
// (scenario/wire.hpp frames): per-cell wall-clock timeouts, bounded
// exponential-backoff retries, quarantine of permanently failing cells
// into GridReport::failed_cells, and checkpoint/resume over already-
// valid frames. The combined fingerprint covers exactly the completed
// cells, so it is invariant to worker count, partition shape, and retry
// history — a crash-retried 4-worker run merges to the same digest as a
// single-process run (tests/gridproc_test.cpp injects every failure
// mode deterministically via FaultPlan and proves it).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
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
};

/// A cell that exhausted its attempts (process mode) or threw under
/// ErrorMode::kCapture (in-process mode). `attempts` counts executions
/// that were tried; `error` is the last failure's description.
struct FailedCell {
  std::uint64_t cell_index = 0;
  std::string label;
  std::uint64_t seed = 0;
  std::uint64_t attempts = 0;
  std::string error;
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
  std::uint64_t threads_used = 0;   // workers configured, in process mode
  double wall_seconds = 0.0;
  /// Process-mode bookkeeping (0 for in-process runs); informational
  /// only, like wall_seconds.
  std::uint64_t retries = 0;        // cell re-executions scheduled
  std::uint64_t resumed_cells = 0;  // valid frames skipped on resume
};

/// The combined fingerprint over the completed cells of `cells` (empty
/// fingerprints — failed slots — are skipped). Exposed so merge tools
/// and tests can recompute the invariant from any partition.
std::string combine_cell_fingerprints(const std::vector<CellResult>& cells);

/// What CampaignGrid::run does when a cell throws.
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

  /// Runs every cell; `threads` == 0 uses the hardware concurrency. One
  /// engine per cell, each on whichever pool thread pops its index.
  /// Under kPropagate an exception in any cell is rethrown after the
  /// pool drains; under kCapture the failing cell lands in
  /// failed_cells (mirroring the process-level degradation semantics)
  /// and every other cell still completes.
  GridReport run(std::size_t threads = 0,
                 ErrorMode errors = ErrorMode::kPropagate) const;

 private:
  std::vector<GridCell> cells_;
};

// --------------------------------------------------------------------
// Multi-process grids: deterministic fault injection, the worker entry
// point, and the crash-tolerant coordinator.
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

/// The process-transport face of a grid: anything that can execute one
/// cell into an encoded result frame and validate + retain a decoded
/// frame fans out across forked worker processes. CampaignGrid binds
/// through run_worker_cells / GridCoordinator and detection::ReplayGrid
/// through detection/replay_proc.hpp, so the fork / timeout / retry /
/// quarantine / resume machinery exists exactly once
/// (ProcessCellCoordinator) instead of per cell kind.
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
  /// Worker side: runs in forked children, so it must not mutate state
  /// the parent reads.
  virtual Bytes run_cell(std::uint64_t cell_index) const = 0;
  /// Decodes + identity-checks a candidate frame, retaining the result
  /// for the job's own report on success. On failure returns false with
  /// `error` naming the defect; decode failures may also surface as
  /// exceptions (the coordinator treats a throw as rejection).
  virtual bool accept_frame(std::uint64_t cell_index, BytesView framed,
                            std::string& error) = 0;
};

/// The generic worker loop: runs each assigned cell of `job` in order
/// and atomically writes its wire frame (temp + rename) into
/// `results_dir`. Shared by forked coordinator children and the
/// tools/gridworker binary, so both transports execute the identical
/// code path. Scripted faults fire when (cell, attempt) matches
/// `faults`: kCrash calls _exit, kHang blocks until killed, kCorrupt
/// writes a frame whose digest cannot verify. Throws on real I/O
/// errors.
void run_job_worker_cells(const CellJob& job,
                          const std::vector<CellAssignment>& assignments,
                          const std::string& results_dir,
                          const FaultPlan& faults = {});

/// Reads the cell frame at `path` and hands it to job.accept_frame. On
/// failure returns false with `error` naming why: a missing file, a
/// wire defect (decode throws are caught), or the job's identity
/// rejection. Shared by the coordinator and merge-only folds.
bool try_accept_frame(CellJob& job, const std::string& path,
                      std::uint64_t cell_index, std::string& error);

/// CampaignGrid convenience over run_job_worker_cells.
void run_worker_cells(const CampaignGrid& grid,
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

/// Validates the shared coordinator knobs (results_dir non-empty,
/// workers / max_attempts >= 1, positive timeout and poll interval);
/// throws ContractViolation on a bad config. Every coordinator front
/// end calls this at construction so misconfiguration fails before any
/// fork.
void validate_coordinator_config(const GridCoordinatorConfig& config);

/// Process-level bookkeeping of one coordinated run, cell-kind
/// agnostic; the job's own report carries the decoded results.
struct ProcessOutcome {
  std::vector<FailedCell> failed_cells;  // cell-index order
  std::uint64_t retries = 0;             // cell re-executions scheduled
  std::uint64_t resumed_cells = 0;       // valid frames skipped on resume
  std::uint64_t workers = 0;             // workers configured
  double wall_seconds = 0.0;
};

/// The generic crash-tolerant coordinator: fans any CellJob across
/// forked worker processes over the results-directory file transport.
/// Each round partitions the outstanding cells round-robin across up to
/// `workers` children running run_job_worker_cells; a worker stuck past
/// cell_timeout_seconds without landing its next frame is killed and
/// its unfinished cells rejoin the queue; failed / timed-out / corrupt
/// cells retry with bounded exponential backoff up to max_attempts
/// executions, then quarantine into the outcome's failed_cells; an
/// existing results directory is a checkpoint — frames the job accepts
/// are resumed, not re-run, and invalid leftovers are removed first.
class ProcessCellCoordinator {
 public:
  ProcessCellCoordinator(CellJob& job, GridCoordinatorConfig config);

  /// Runs (or resumes) every cell to completion or quarantine,
  /// delivering accepted results into the job via accept_frame.
  ProcessOutcome run();

 private:
  CellJob& job_;
  GridCoordinatorConfig config_;
};

/// Fans a CampaignGrid across forked worker processes and merges the
/// results-directory frames into one GridReport, surviving worker
/// crashes, hangs, and corrupt output:
///
///   - each round partitions the outstanding cells round-robin across
///     up to `workers` forked children running run_worker_cells;
///   - a worker stuck past cell_timeout_seconds is killed, its
///     unfinished cells rejoin the queue;
///   - failed / timed-out / corrupt cells retry with bounded
///     exponential backoff up to max_attempts executions, then are
///     quarantined into GridReport::failed_cells (graceful degradation:
///     completed cells still merge and golden-gate);
///   - an existing results directory is a checkpoint: frames that
///     decode cleanly and match the grid's (label, seed) are resumed,
///     not re-run — corrupt or stale frames are re-run and overwritten.
///
/// The merged combined fingerprint covers exactly the completed cells,
/// so it is provably invariant to worker count, partition shape, and
/// retry history.
class GridCoordinator {
 public:
  GridCoordinator(const CampaignGrid& grid, GridCoordinatorConfig config);

  /// Runs (or resumes) the grid to completion or quarantine.
  GridReport run();

 private:
  const CampaignGrid& grid_;
  GridCoordinatorConfig config_;
};

}  // namespace onion::scenario

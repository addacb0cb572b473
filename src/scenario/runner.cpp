#include "scenario/runner.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

#include "common/bytes.hpp"
#include "common/check.hpp"
#include "common/fileio.hpp"
#include "common/parallel.hpp"
#include "crypto/sha256.hpp"
#include "scenario/wire.hpp"

namespace onion::scenario {

namespace fs = std::filesystem;

namespace {

// Distinct worker exit codes, visible in quarantine error messages.
constexpr int kWorkerCrashExit = 86;   // scripted kCrash fault
constexpr int kWorkerErrorExit = 97;   // exception escaped the cell loop

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void sleep_seconds(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

void execute_cell(const GridCell& cell, CellResult& out) {
  out.label = cell.label;
  out.seed = cell.spec.seed;
  const auto start = std::chrono::steady_clock::now();
  MemorySink memory;
  HashSink hash;
  FanoutSink fanout({&memory, &hash});
  CampaignEngine engine(cell.spec, fanout);
  engine.run();
  out.wall_seconds = seconds_since(start);
  out.fingerprint = hash.hex_digest();
  out.series = memory.take();
  out.counters = engine.counters();
  out.events_executed = engine.events_executed();
}

std::uint64_t parse_u64(std::string_view token, std::string_view context) {
  std::uint64_t value = 0;
  const auto [ptr, err] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (err != std::errc{} || ptr != token.data() + token.size())
    throw std::invalid_argument("FaultPlan: bad number '" +
                                std::string(token) + "' in '" +
                                std::string(context) + "'");
  return value;
}

}  // namespace

std::string combine_cell_fingerprints(const std::vector<CellResult>& cells) {
  // The static face of the informational-fields contract (see
  // scenario/wire.hpp): this path consumes only the per-cell snapshot-
  // stream digests, so wall clocks, retry history, and worker topology
  // cannot reach a fingerprint.
  static_assert(!wire::kInformationalFieldsEnterFingerprints,
                "fingerprints must never cover informational fields; the "
                "contract lives in scenario/wire.hpp");
  std::vector<std::string> digests;
  digests.reserve(cells.size());
  for (const CellResult& cell : cells)
    if (!cell.fingerprint.empty()) digests.push_back(cell.fingerprint);
  // Sorting makes the aggregate a fingerprint of the *set* of completed
  // campaigns: reordering cells, rebalancing threads, or repartitioning
  // workers cannot change it.
  std::sort(digests.begin(), digests.end());
  crypto::Sha256 hasher;
  for (const std::string& d : digests) hasher.update(to_bytes(d));
  const crypto::Sha256Digest digest = hasher.finalize();
  return to_hex(BytesView(digest.data(), digest.size()));
}

CampaignGrid CampaignGrid::seed_sweep(const ScenarioSpec& base,
                                      std::uint64_t first_seed,
                                      std::size_t count) {
  CampaignGrid grid;
  for (std::size_t i = 0; i < count; ++i) {
    ScenarioSpec spec = base;
    spec.seed = first_seed + i;
    grid.add("seed=" + std::to_string(spec.seed), spec);
  }
  return grid;
}

GridReport CampaignGrid::run(std::size_t threads, ErrorMode errors) const {
  CampaignCellJob job(*this);
  return job.report(run_job(job, threads, errors));
}

CampaignCellJob::CampaignCellJob(const CampaignGrid& grid)
    : grid_(grid), results_(grid.size()) {}

std::string CampaignCellJob::frame_filename(std::uint64_t cell_index) const {
  return cell_frame_filename(cell_index);
}

std::string CampaignCellJob::cell_label(std::uint64_t cell_index) const {
  return grid_.cells()[cell_index].label;
}

std::uint64_t CampaignCellJob::cell_seed(std::uint64_t cell_index) const {
  return grid_.cells()[cell_index].spec.seed;
}

Bytes CampaignCellJob::run_cell(std::uint64_t cell_index) const {
  CellResult result;
  execute_cell(grid_.cells()[cell_index], result);
  return wire::encode_frame(result);
}

bool CampaignCellJob::accept_frame(std::uint64_t cell_index, BytesView framed,
                                   std::string& error) {
  CellResult loaded = wire::decode_frame<CellResult>(framed);
  const GridCell& expected = grid_.cells()[cell_index];
  if (loaded.label != expected.label || loaded.seed != expected.spec.seed) {
    error = "frame identity mismatch: holds (" + loaded.label + ", seed " +
            std::to_string(loaded.seed) + "), expected (" + expected.label +
            ", seed " + std::to_string(expected.spec.seed) + ")";
    return false;
  }
  results_[cell_index] = std::move(loaded);
  return true;
}

GridReport CampaignCellJob::report(GridOutcome outcome) {
  GridReport report;
  report.cells = std::exchange(results_, std::vector<CellResult>(size()));
  // Failed slots keep their identity visible even though no result
  // ever landed.
  for (const FailedCell& f : outcome.failed_cells) {
    CellResult& slot = report.cells[f.cell_index];
    slot.label = f.label;
    slot.seed = f.seed;
  }
  report.failed_cells = std::move(outcome.failed_cells);
  report.combined_fingerprint = combine_cell_fingerprints(report.cells);
  report.threads_used = outcome.workers;
  report.wall_seconds = outcome.wall_seconds;
  report.retries = outcome.retries;
  report.resumed_cells = outcome.resumed_cells;
  return report;
}

// --------------------------------------------------------------------
// Deterministic fault injection
// --------------------------------------------------------------------

FaultPlan FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t end = std::min(text.find(';', pos), text.size());
    const std::string_view token = text.substr(pos, end - pos);
    pos = end + 1;
    if (token.empty()) continue;
    const std::size_t at = token.find('@');
    const std::size_t colon = token.find(':', at == std::string_view::npos
                                                    ? 0
                                                    : at + 1);
    if (at == std::string_view::npos || colon == std::string_view::npos)
      throw std::invalid_argument("FaultPlan: bad token '" +
                                  std::string(token) +
                                  "' (want kind@cell:attempt)");
    const std::string_view kind = token.substr(0, at);
    FaultSpec fault;
    if (kind == "crash") {
      fault.kind = FaultSpec::Kind::kCrash;
    } else if (kind == "hang") {
      fault.kind = FaultSpec::Kind::kHang;
    } else if (kind == "corrupt") {
      fault.kind = FaultSpec::Kind::kCorrupt;
    } else {
      throw std::invalid_argument("FaultPlan: unknown kind '" +
                                  std::string(kind) +
                                  "' (crash, hang, or corrupt)");
    }
    fault.cell_index = parse_u64(token.substr(at + 1, colon - at - 1), token);
    fault.attempt = parse_u64(token.substr(colon + 1), token);
    plan.add(fault);
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const FaultSpec& f : faults_) {
    if (!out.empty()) out += ';';
    switch (f.kind) {
      case FaultSpec::Kind::kCrash: out += "crash"; break;
      case FaultSpec::Kind::kHang: out += "hang"; break;
      case FaultSpec::Kind::kCorrupt: out += "corrupt"; break;
    }
    out += '@' + std::to_string(f.cell_index) + ':' +
           std::to_string(f.attempt);
  }
  return out;
}

const FaultSpec* FaultPlan::match(std::uint64_t cell_index,
                                  std::uint64_t attempt) const {
  for (const FaultSpec& f : faults_)
    if (f.cell_index == cell_index && f.attempt == attempt) return &f;
  return nullptr;
}

// --------------------------------------------------------------------
// Worker side
// --------------------------------------------------------------------

std::string cell_frame_filename(std::uint64_t cell_index) {
  char name[32];
  std::snprintf(name, sizeof name, "cell_%06llu.frame",
                static_cast<unsigned long long>(cell_index));
  return name;
}

void run_job_worker_cells(const CellJob& job,
                          const std::vector<CellAssignment>& assignments,
                          const std::string& results_dir,
                          const FaultPlan& faults) {
  ONION_EXPECTS(!results_dir.empty());
  fs::create_directories(results_dir);
  for (const CellAssignment& a : assignments) {
    ONION_EXPECTS_MSG(a.cell_index < job.size(),
                      "cell " << a.cell_index << " of a " << job.size()
                              << "-cell job");
    const FaultSpec* fault = faults.match(a.cell_index, a.attempt);
    if (fault != nullptr && fault->kind == FaultSpec::Kind::kCrash) {
      // Scripted crash: die before the frame exists. _Exit skips every
      // destructor and atexit hook — the closest safe stand-in for a
      // real SIGSEGV from the transport's point of view.
      std::_Exit(kWorkerCrashExit);
    }
    if (fault != nullptr && fault->kind == FaultSpec::Kind::kHang) {
      // Scripted hang: block until the coordinator's timeout kills us.
      // Bounded so an orphaned worker cannot outlive a dead test run.
      for (int i = 0; i < 6000; ++i) sleep_seconds(0.01);
      std::_Exit(kWorkerErrorExit);
    }
    Bytes framed = job.run_cell(a.cell_index);
    if (fault != nullptr && fault->kind == FaultSpec::Kind::kCorrupt) {
      // Scripted corruption: flip one payload bit and publish the frame
      // under the final name — exactly the torn/bit-rotted file the
      // integrity digest exists to catch.
      framed[wire::kFrameHeaderBytes +
             (framed.size() - wire::kFrameHeaderBytes -
              wire::kFrameDigestBytes) /
                 2] ^= 0x01;
    }
    write_file_atomic(results_dir + "/" + job.frame_filename(a.cell_index),
                      framed);
  }
}

// --------------------------------------------------------------------
// Transports
// --------------------------------------------------------------------

namespace {

struct WorkerProc {
  pid_t pid = -1;
  std::vector<CellAssignment> cells;  // executed in this order
  std::size_t next_unseen = 0;        // first cell without a visible frame
  std::chrono::steady_clock::time_point last_progress;
  bool running = true;
  bool killed = false;
  int wait_status = 0;
};

std::string describe_exit(const WorkerProc& w, double timeout_seconds) {
  if (w.killed)
    return "worker killed after " + std::to_string(timeout_seconds) +
           "s without landing a frame";
  if (WIFEXITED(w.wait_status)) {
    const int code = WEXITSTATUS(w.wait_status);
    if (code == 0) return "worker exited cleanly";
    return "worker exited with status " + std::to_string(code);
  }
  if (WIFSIGNALED(w.wait_status))
    return "worker died on signal " + std::to_string(WTERMSIG(w.wait_status));
  return "worker ended abnormally";
}

/// Hands one candidate frame to the job; a decode throw is a rejection
/// whose message becomes `error`.
bool accept_frame_bytes(CellJob& job, std::uint64_t cell_index,
                        BytesView framed, std::string& error) {
  try {
    return job.accept_frame(cell_index, framed, error);
  } catch (const std::exception& e) {
    error = e.what();
    return false;
  }
}

/// accept_frame_bytes over the frame file at `path`; a missing file is
/// the rejection "no result frame".
bool try_accept_frame(CellJob& job, const std::string& path,
                      std::uint64_t cell_index, std::string& error) {
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    error = "no result frame";
    return false;
  }
  try {
    return accept_frame_bytes(job, cell_index, read_file_bytes(path), error);
  } catch (const std::exception& e) {  // the read itself failed
    error = e.what();
    return false;
  }
}

FailedCell failed_cell(const CellJob& job, std::uint64_t cell_index,
                       std::uint64_t attempts, std::string error) {
  return {cell_index, job.cell_label(cell_index), job.cell_seed(cell_index),
          attempts, std::move(error)};
}

}  // namespace

void validate_coordinator_config(const GridCoordinatorConfig& config) {
  ONION_EXPECTS(!config.results_dir.empty());
  ONION_EXPECTS(config.workers >= 1);
  ONION_EXPECTS(config.max_attempts >= 1);
  // NaN fails every comparison and an infinity would reach sleep_for,
  // so durations must be finite as well as positive.
  const auto positive = [](double seconds) {
    return std::isfinite(seconds) && seconds > 0.0;
  };
  ONION_EXPECTS(positive(config.cell_timeout_seconds));
  ONION_EXPECTS(positive(config.backoff_base_seconds));
  ONION_EXPECTS(positive(config.backoff_max_seconds));
  ONION_EXPECTS(positive(config.poll_interval_seconds));
}

GridOutcome run_job(CellJob& job, std::size_t threads, ErrorMode errors) {
  const auto start = std::chrono::steady_clock::now();
  const std::size_t n = job.size();
  GridOutcome outcome;
  // Frames land at the cell's index, so the sharding (and the
  // single-thread inline fast path inside parallel_for_index) cannot
  // leak into the results — the determinism tests compare thread counts.
  std::vector<Bytes> frames(n);
  std::vector<std::string> cell_errors(n);
  outcome.workers = parallel_for_index(n, threads, [&](std::size_t i) {
    if (errors == ErrorMode::kPropagate) {
      frames[i] = job.run_cell(i);
      return;
    }
    try {
      frames[i] = job.run_cell(i);
    } catch (const std::exception& e) {
      cell_errors[i] = e.what();
    }
  });

  for (std::size_t i = 0; i < n; ++i) {
    const Bytes frame = std::move(frames[i]);
    std::string error = std::move(cell_errors[i]);
    if (error.empty() && accept_frame_bytes(job, i, frame, error)) continue;
    if (errors == ErrorMode::kPropagate)
      throw std::runtime_error("cell " + std::to_string(i) + ": " + error);
    outcome.failed_cells.push_back(failed_cell(job, i, 1, std::move(error)));
  }
  outcome.wall_seconds = seconds_since(start);
  return outcome;
}

GridOutcome merge_job_frames(CellJob& job, const std::string& results_dir) {
  const auto start = std::chrono::steady_clock::now();
  GridOutcome outcome;
  for (std::size_t i = 0; i < job.size(); ++i) {
    std::string error;
    if (!try_accept_frame(job, results_dir + "/" + job.frame_filename(i), i,
                          error))
      outcome.failed_cells.push_back(failed_cell(job, i, 0, std::move(error)));
  }
  outcome.wall_seconds = seconds_since(start);
  return outcome;
}

GridOutcome coordinate_job(CellJob& job, const GridCoordinatorConfig& config) {
  validate_coordinator_config(config);
  const auto start = std::chrono::steady_clock::now();
  const std::size_t n = job.size();
  fs::create_directories(config.results_dir);

  GridOutcome outcome;
  outcome.workers = config.workers;

  std::vector<std::uint64_t> attempts(n, 0);
  std::vector<std::size_t> pending;

  const auto frame_path = [&](std::uint64_t cell_index) {
    return config.results_dir + "/" + job.frame_filename(cell_index);
  };

  // Checkpoint/resume: frames that decode cleanly and pass the job's
  // identity check are final results; anything else (missing, truncated,
  // corrupt, stale identity) is removed and re-run.
  for (std::size_t i = 0; i < n; ++i) {
    const std::string path = frame_path(i);
    std::string error;
    if (try_accept_frame(job, path, i, error)) {
      ++outcome.resumed_cells;
    } else {
      std::error_code ec;
      fs::remove(path, ec);  // invalid leftovers must not mask progress
      pending.push_back(i);
    }
  }

  std::size_t round = 0;
  while (!pending.empty()) {
    // Partition the outstanding cells round-robin across the workers.
    const std::size_t spawn = std::min(config.workers, pending.size());
    std::vector<WorkerProc> workers(spawn);
    for (std::size_t k = 0; k < pending.size(); ++k)
      workers[k % spawn].cells.push_back(
          {pending[k], attempts[pending[k]]});

    const auto spawned_at = std::chrono::steady_clock::now();
    for (WorkerProc& w : workers) {
      const pid_t pid = ::fork();
      if (pid < 0)
        throw std::runtime_error("coordinate_job: fork failed");
      if (pid == 0) {
        // Child: run the assigned subset and leave without touching the
        // parent's state (no destructors, no flushes of inherited
        // buffers). The identical loop serves the gridworker binary.
        try {
          run_job_worker_cells(job, w.cells, config.results_dir,
                               config.faults);
        } catch (...) {
          std::_Exit(kWorkerErrorExit);
        }
        std::_Exit(0);
      }
      w.pid = pid;
      w.last_progress = spawned_at;
    }

    // Monitor: a worker writes its frames in assignment order, so the
    // per-cell wall-clock timeout is "time since the last frame landed".
    std::size_t live = spawn;
    while (live > 0) {
      sleep_seconds(config.poll_interval_seconds);
      const auto now = std::chrono::steady_clock::now();
      for (WorkerProc& w : workers) {
        if (!w.running) continue;
        std::error_code ec;
        while (w.next_unseen < w.cells.size() &&
               fs::exists(frame_path(w.cells[w.next_unseen].cell_index),
                          ec)) {
          ++w.next_unseen;
          w.last_progress = now;
        }
        int status = 0;
        if (::waitpid(w.pid, &status, WNOHANG) == w.pid) {
          w.running = false;
          w.wait_status = status;
          --live;
          continue;
        }
        if (std::chrono::duration<double>(now - w.last_progress).count() >
            config.cell_timeout_seconds) {
          ::kill(w.pid, SIGKILL);
          ::waitpid(w.pid, &status, 0);
          w.running = false;
          w.killed = true;
          w.wait_status = status;
          --live;
        }
      }
    }

    // Collect: validate every frame this round was responsible for.
    std::vector<std::size_t> next_pending;
    for (const WorkerProc& w : workers) {
      for (const CellAssignment& a : w.cells) {
        const std::size_t i = static_cast<std::size_t>(a.cell_index);
        const std::string path = frame_path(i);
        std::string error;
        if (try_accept_frame(job, path, i, error)) continue;
        std::error_code ec;
        fs::remove(path, ec);
        ++attempts[i];
        const std::string cause =
            error + " (" + describe_exit(w, config.cell_timeout_seconds) +
            ")";
        if (attempts[i] >= config.max_attempts) {
          // Quarantine: the grid degrades gracefully instead of dying.
          outcome.failed_cells.push_back(
              failed_cell(job, i, attempts[i], cause));
        } else {
          next_pending.push_back(i);
          ++outcome.retries;
        }
      }
    }

    pending = std::move(next_pending);
    if (!pending.empty()) {
      // Bounded exponential backoff before the retry round.
      const int exponent = static_cast<int>(std::min<std::size_t>(round, 30));
      sleep_seconds(std::min(
          std::ldexp(config.backoff_base_seconds, exponent),
          config.backoff_max_seconds));
      ++round;
    }
  }

  std::sort(outcome.failed_cells.begin(), outcome.failed_cells.end(),
            [](const FailedCell& a, const FailedCell& b) {
              return a.cell_index < b.cell_index;
            });
  outcome.wall_seconds = seconds_since(start);
  return outcome;
}

}  // namespace onion::scenario

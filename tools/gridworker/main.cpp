// gridworker — the multi-process grid CLI.
//
// Campaign grids (--grid NAME) simulate cells from scratch; replay
// grids (--replay-grid) score recorded trace files (--trace, one per
// campaign) through detection::ReplayGrid cells. Both run over the same
// results-directory file transport and fault-tolerance machinery:
//
//   --worker       run an assigned cell subset and write each result as
//                  an atomically-published wire frame (the multi-host
//                  building block: any scheduler can fan shards of
//                  --cells across machines sharing a directory)
//   --coordinate   fork workers locally, enforce per-cell timeouts,
//                  retry with bounded backoff, quarantine permanent
//                  failures, resume over already-valid frames, and
//                  merge everything into one report frame
//   --merge        (replay only) fold whatever valid frames a results
//                  directory holds into a report without executing
//                  anything — the finish step for hand-sharded runs
//   --record-trace record one named-grid cell's campaign to a trace
//                  file workers can share
//
// Merged fingerprints are invariant to worker count, partition shape,
// and retry history, so CI golden-gates crash-injected multi-worker
// runs against the single-process digests (tests/goldens/grid_small8.txt
// and tests/goldens/replay_grid_small.txt).
//
//   ./build/tools/gridworker/gridworker --grid small8 --coordinate
//       --workers 4 --faults 'crash@2:0' --results-dir /tmp/grid
//   ./build/tools/gridworker/gridworker --record-trace /tmp/c0.otrace
//       --grid small8 --cell 0
//   ./build/tools/gridworker/gridworker --replay-grid --coordinate
//       --trace /tmp/c0.otrace --replay-seeds 1,2,3,4 --workers 4
//       --results-dir /tmp/replay
//
// Scripted faults come from --faults or the ONION_GRID_FAULTS env var
// (flag wins): `crash@2:0;hang@5:1;corrupt@7:0` = kind@cell:attempt.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fileio.hpp"
#include "detection/replay_grid.hpp"
#include "scenario/engine.hpp"
#include "scenario/runner.hpp"
#include "scenario/trace_io.hpp"
#include "scenario/wire.hpp"
#include "tools/gridworker/cli.hpp"

using namespace onion;
using namespace onion::scenario;

namespace {

ScenarioSpec small8_base() {
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

ScenarioSpec sweep8_base() {
  ScenarioSpec spec;
  spec.initial_size = 1500;
  spec.degree = 10;
  spec.horizon = kHour;
  spec.churn.joins_per_hour = 150.0;
  spec.churn.leaves_per_hour = 150.0;
  AttackPhase takedown;
  takedown.kind = AttackKind::RandomTakedown;
  takedown.start = 15 * kMinute;
  takedown.stop = 45 * kMinute;
  takedown.takedowns_per_hour = 300.0;
  spec.attacks.push_back(takedown);
  spec.metrics.period = 5 * kMinute;
  return spec;
}

struct NamedGrid {
  const char* name;
  const char* description;
  CampaignGrid (*build)();
};

const NamedGrid kGrids[] = {
    {"small8",
     "8-seed sweep, 150-bot churn+takedown 10-minute campaign (CI gate)",
     [] { return CampaignGrid::seed_sweep(small8_base(), 100, 8); }},
    {"sweep8",
     "8-seed sweep, 1500-bot churn+takedown hour "
     "(examples/campaign_grid.cpp)",
     [] { return CampaignGrid::seed_sweep(sweep8_base(), 0xA0, 8); }},
};

CampaignGrid named_grid(const std::string& name) {
  for (const NamedGrid& g : kGrids)
    if (name == g.name) return g.build();
  throw gridcli::CliError("unknown grid '" + name + "' (try --list-grids)");
}

int usage(std::FILE* out) {
  std::fprintf(
      out,
      "gridworker — crash-tolerant multi-process grids\n"
      "\n"
      "campaign grids (simulate cells from scratch):\n"
      "  gridworker --grid NAME --results-dir DIR --coordinate\n"
      "      [--workers N] [--max-attempts K] [--timeout SEC]\n"
      "      [--backoff-base SEC] [--backoff-max SEC] [--faults PLAN]\n"
      "  gridworker --grid NAME --results-dir DIR --worker\n"
      "      --cells 0,3:1,5 [--faults PLAN]\n"
      "\n"
      "replay grids (score recorded traces; cells are campaign x seed):\n"
      "  gridworker --record-trace FILE --grid NAME [--cell N]\n"
      "  gridworker --replay-grid --coordinate --trace FILE...\n"
      "      [--replay-seeds 1,2,3,4] --results-dir DIR [--workers N] ...\n"
      "  gridworker --replay-grid --worker --trace FILE...\n"
      "      --cells 0,2 --results-dir DIR [--faults PLAN]\n"
      "  gridworker --replay-grid --merge --trace FILE... --results-dir DIR\n"
      "\n"
      "  gridworker --show-report [--replay-grid] --results-dir DIR\n"
      "  gridworker --list-grids\n"
      "\n"
      "Faults (kind@cell:attempt, ';'-separated; e.g. 'crash@2:0;hang@5:1')\n"
      "default from $ONION_GRID_FAULTS when --faults is absent.\n");
  return out == stderr ? 2 : 0;
}

void print_report(const std::string& grid_name, const GridReport& report) {
  std::printf("grid: %s\n", grid_name.c_str());
  std::printf("cells: %zu\n", report.cells.size());
  std::printf("completed: %zu\n",
              report.cells.size() - report.failed_cells.size());
  std::printf("failed: %zu\n", report.failed_cells.size());
  std::printf("retries: %llu\n",
              static_cast<unsigned long long>(report.retries));
  std::printf("resumed: %llu\n",
              static_cast<unsigned long long>(report.resumed_cells));
  std::printf("workers: %llu\n",
              static_cast<unsigned long long>(report.threads_used));
  for (const FailedCell& f : report.failed_cells)
    std::printf("quarantined: cell %llu (%s, seed %llu) after %llu "
                "attempts: %s\n",
                static_cast<unsigned long long>(f.cell_index),
                f.label.c_str(),
                static_cast<unsigned long long>(f.seed),
                static_cast<unsigned long long>(f.attempts),
                f.error.c_str());
  std::printf("combined_fingerprint: %s\n",
              report.combined_fingerprint.c_str());
}

/// `cell_total` = the grid's cell count, or 0 when unknown
/// (--show-report decodes a frame without knowing the grid shape).
void print_replay_report(const detection::ReplayGridReport& report,
                         std::size_t cell_total) {
  if (cell_total > 0) {
    std::printf("replay_cells: %zu\n", cell_total);
    std::printf("completed: %zu\n", cell_total - report.failed_cells.size());
  }
  std::printf("failed: %zu\n", report.failed_cells.size());
  std::printf("retries: %llu\n",
              static_cast<unsigned long long>(report.retries));
  std::printf("resumed: %llu\n",
              static_cast<unsigned long long>(report.resumed_cells));
  std::printf("workers: %llu\n",
              static_cast<unsigned long long>(report.threads_used));
  for (const FailedCell& f : report.failed_cells)
    std::printf("quarantined: cell %llu (%s) after %llu attempts: %s\n",
                static_cast<unsigned long long>(f.cell_index),
                f.label.c_str(),
                static_cast<unsigned long long>(f.attempts),
                f.error.c_str());
  std::printf("points: %zu\n", report.points.size());
  std::printf("replay_grid_fingerprint: %s\n", report.fingerprint.c_str());
}

int run_record_trace(const gridcli::Options& options) {
  const CampaignGrid grid = named_grid(options.grid_name);
  if (options.record_cell >= grid.size())
    throw gridcli::CliError("--cell " + std::to_string(options.record_cell) +
                            " of a " + std::to_string(grid.size()) +
                            "-cell grid");
  const GridCell& cell = grid.cells()[options.record_cell];
  trace_io::TraceWriter writer(options.record_trace_path);
  CampaignEngine engine(cell.spec, writer, &writer);
  engine.run();
  writer.finish();
  std::printf("recorded cell %llu (%s) -> %s\n",
              static_cast<unsigned long long>(options.record_cell),
              cell.label.c_str(), options.record_trace_path.c_str());
  std::printf("events: %llu\nsnapshots: %llu\nchunks: %llu\n",
              static_cast<unsigned long long>(writer.event_count()),
              static_cast<unsigned long long>(writer.snapshot_count()),
              static_cast<unsigned long long>(writer.chunk_count()));
  std::printf("trace_event_fingerprint: %s\n", writer.fingerprint().c_str());
  return 0;
}

int run_replay_mode(const gridcli::Options& options) {
  detection::ReplayGridConfig grid_config;
  if (!options.replay_seeds.empty())
    grid_config.replay_seeds = options.replay_seeds;
  const detection::ReplayGrid grid(grid_config);

  if (options.role == gridcli::Role::kMerge) {
    // Merge-only: one null (never executed) slot per --trace.
    detection::ReplayGridJob job(
        grid, std::vector<const TraceSource*>(options.traces.size()));
    const detection::ReplayGridReport report =
        job.report(merge_job_frames(job, options.results_dir));
    write_file_atomic(options.results_dir + "/replay_report.frame",
                      wire::encode_frame(report));
    print_replay_report(report, grid.cell_count(options.traces.size()));
    return report.failed_cells.empty() ? 0 : 1;
  }

  // Worker and coordinator both stream the shared trace files; each
  // reader validates header+footer at open, so a truncated copy fails
  // here, fast, instead of inside a forked worker.
  std::vector<std::unique_ptr<trace_io::TraceReader>> readers;
  std::vector<const TraceSource*> campaigns;
  for (const std::string& path : options.traces) {
    readers.push_back(std::make_unique<trace_io::TraceReader>(path));
    campaigns.push_back(readers.back().get());
  }
  const std::size_t cell_total = grid.cell_count(campaigns.size());
  detection::ReplayGridJob job(grid, campaigns);

  if (options.role == gridcli::Role::kWorker) {
    for (const CellAssignment& a : options.cells)
      if (a.cell_index >= cell_total)
        throw gridcli::CliError("--cells: cell " +
                                std::to_string(a.cell_index) + " of a " +
                                std::to_string(cell_total) +
                                "-cell replay grid");
    run_job_worker_cells(job, options.cells, options.results_dir,
                         options.config.faults);
    std::printf("wrote %zu replay cell frame(s) into %s\n",
                options.cells.size(), options.results_dir.c_str());
    return 0;
  }

  const detection::ReplayGridReport report =
      job.report(coordinate_job(job, options.config));
  write_file_atomic(options.results_dir + "/replay_report.frame",
                    wire::encode_frame(report));
  print_replay_report(report, cell_total);
  return report.failed_cells.empty() ? 0 : 1;
}

int run(const gridcli::Options& options) {
  switch (options.role) {
    case gridcli::Role::kHelp:
      return usage(stdout);
    case gridcli::Role::kListGrids:
      for (const NamedGrid& g : kGrids)
        std::printf("%-8s %s\n", g.name, g.description);
      return 0;
    case gridcli::Role::kShowReport: {
      if (options.replay_grid) {
        const auto report = wire::decode_frame<detection::ReplayGridReport>(
            read_file_bytes(options.results_dir + "/replay_report.frame"));
        std::printf("report: replay_report.frame\n");
        print_replay_report(report, /*cell_total=*/0);
        return report.failed_cells.empty() ? 0 : 1;
      }
      const auto report = wire::decode_frame<GridReport>(
          read_file_bytes(options.results_dir + "/grid_report.frame"));
      print_report("(from grid_report.frame)", report);
      return report.failed_cells.empty() ? 0 : 1;
    }
    case gridcli::Role::kRecordTrace:
      return run_record_trace(options);
    default:
      break;
  }

  if (options.replay_grid) return run_replay_mode(options);

  const CampaignGrid grid = named_grid(options.grid_name);
  CampaignCellJob job(grid);

  if (options.role == gridcli::Role::kWorker) {
    for (const CellAssignment& a : options.cells)
      if (a.cell_index >= grid.size())
        throw gridcli::CliError("--cells: cell " +
                                std::to_string(a.cell_index) + " of a " +
                                std::to_string(grid.size()) + "-cell grid");
    run_job_worker_cells(job, options.cells, options.results_dir,
                         options.config.faults);
    std::printf("wrote %zu cell frame(s) into %s\n", options.cells.size(),
                options.results_dir.c_str());
    return 0;
  }

  const GridReport report = job.report(coordinate_job(job, options.config));
  // The merged report is itself a resumable artifact: decode it later
  // with --show-report (or any wire consumer) without re-running.
  write_file_atomic(options.results_dir + "/grid_report.frame",
                    wire::encode_frame(report));
  print_report(options.grid_name, report);
  return report.failed_cells.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const gridcli::Options options = gridcli::parse_args(
        std::vector<std::string>(argv + 1, argv + argc),
        std::getenv("ONION_GRID_FAULTS"));
    for (const std::string& w : options.warnings)
      std::fprintf(stderr, "gridworker: warning: %s\n", w.c_str());
    return run(options);
  } catch (const gridcli::CliError& e) {
    std::fprintf(stderr, "gridworker: %s (try --help)\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gridworker: %s\n", e.what());
    return 2;
  }
}

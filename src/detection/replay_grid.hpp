// Replay-level ROC grids over streamed campaign traces: the sweep that
// lets a recorded 500k-node campaign be scored end-to-end without ever
// materializing its event log (scenario/trace_io.hpp streams it) *or*
// its TrafficTrace (the synthesizer here feeds flows host-by-host into
// a streaming scorer and releases each host as soon as it is scored).
//
//   replay_trace_streaming
//     The one replay synthesizer: flows (and the DNS log) stream into a
//     FlowSink grouped by source host instead of accumulating in a
//     trace. Peak memory is one host's flows plus the population tables
//     — never the capture. detection::replay_trace is this stream
//     collected into a TrafficTrace.
//
//   ReplayGrid / ReplayGridJob
//     A grid of campaign × replay-seed cells; each cell streams one
//     replay into a FlowScorer (detection/flow_scorer.hpp) that scores
//     the full detector-threshold axes in one pass. ReplayGridJob is
//     the grid as a scenario::CellJob, so it runs on any of the three
//     transports in scenario/runner.hpp: run_job (ReplayGrid::run is
//     job.report(run_job(...))), coordinate_job (forked workers over
//     shared trace files), and merge_job_frames (fold a hand-sharded
//     results directory). Every transport executes the same run_cell
//     and folds through the same report(), so points land at their
//     grid slice and the fingerprint is invariant to thread count,
//     worker count, partition shape, and retry history.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "detection/flow_scorer.hpp"
#include "detection/replay.hpp"
#include "scenario/runner.hpp"
#include "scenario/trace.hpp"

namespace onion::detection {

/// The per-population host tables a streamed replay produces instead of
/// a TrafficTrace: everything the grid needs to score verdicts, nothing
/// proportional to the capture.
struct StreamPopulations {
  /// Named per-family populations, same fixed order as
  /// replay_ground_truth (empty populations omitted).
  GroundTruth truth;
  std::vector<HostId> infected;   // union of every bot family, ascending
  std::vector<HostId> monitored;  // infected + benign, ascending
  std::vector<HostId> known_tor_relays;
  std::uint64_t flows = 0;  // total flows streamed into the sink
};

/// Streams the synthesized defender's capture into `sink` and returns
/// the population tables. Host ids are assigned benign first, then the
/// legacy families, then campaign bots in node-id order; any
/// TraceSource works (two forward event passes).
StreamPopulations replay_trace_streaming(
    const scenario::TraceSource& campaign, const ReplayConfig& config,
    FlowSink& sink);

/// The replay-level grid: which campaigns' recorded traces to sweep is
/// run()'s argument; this config fixes the replay knobs, the seed axis,
/// and the detector-threshold axes.
struct ReplayGridConfig {
  /// Telemetry-noise realizations per campaign.
  std::vector<std::uint64_t> replay_seeds = {1, 2};
  /// Replay knobs shared by every cell (seed is overridden per cell).
  ReplayConfig replay;

  /// Flow-beacon axes (row-major size_cv × gap_cv, like RocConfig).
  std::vector<double> flow_size_cv = {0.1, 0.25, 0.5, 0.75};
  std::vector<double> flow_gap_cv = {0.2, 0.45, 0.7, 1.0};
  std::size_t flow_min_flows = 12;
  /// Tor-flagger axis.
  std::vector<std::size_t> tor_min_flows = {1, 3, 10, 30};

  /// Worker pool; 0 = hardware concurrency.
  std::size_t threads = 0;
};

/// One scored operating point of one (campaign, seed) cell.
struct ReplayGridPoint {
  std::size_t campaign = 0;  // index into run()'s campaign list
  std::uint64_t replay_seed = 0;
  std::string detector;  // "flow-beacon" | "tor-flagger"
  std::string params;    // canonical "key=value,..." tuple
  std::uint64_t flows = 0;  // flows the cell streamed (deterministic)
  std::size_t flagged = 0;
  std::size_t true_positives = 0;
  std::size_t false_positives = 0;
  double tpr = 0.0;
  double fpr = 0.0;
  /// Per-population counts in GroundTruth order — the family resolution
  /// the paper's argument needs (tor-flagger's benign_tor FPR).
  std::vector<RocFamilyCount> families;

  /// Wire layout (common/codec.hpp), in encoding order.
  static auto fields(auto& s, auto&& v) {
    return v("ReplayGridPoint", codec::u64("campaign", s.campaign),
             codec::u64("replay_seed", s.replay_seed),
             codec::str("detector", s.detector),
             codec::str("params", s.params), codec::u64("flows", s.flows),
             codec::u64("flagged", s.flagged),
             codec::u64("true_positives", s.true_positives),
             codec::u64("false_positives", s.false_positives),
             codec::f64("tpr", s.tpr), codec::f64("fpr", s.fpr),
             codec::list("families", s.families));
  }
};

/// The grid fingerprint over `points` (codec::fingerprint: chained
/// SHA-256 over each point's encoding, hex, in the given order). Exposed
/// so tests can recompute the invariant from any partition of completed
/// cells.
std::string combine_replay_points(const std::vector<ReplayGridPoint>& points);

/// One (campaign, seed) cell's outcome — the unit the multi-process
/// transport ships as a wire frame (scenario/wire.hpp). `points` is the
/// cell's points_per_cell() slice of the grid, in grid order.
/// wall_seconds is informational only (never fingerprinted).
struct ReplayGridCell {
  std::uint64_t cell_index = 0;
  std::uint64_t campaign = 0;  // index into the campaign list
  std::uint64_t replay_seed = 0;
  std::vector<ReplayGridPoint> points;
  double wall_seconds = 0.0;

  /// Frame tag "OBRCEL\x00\x01" (scenario/wire.hpp): distinct from
  /// every campaign frame's.
  static constexpr std::uint64_t kFrameMagic = 0x4f425243454c0001ull;
  /// Wire layout (common/codec.hpp), in encoding order.
  static auto fields(auto& s, auto&& v) {
    return v("ReplayGridCell", codec::u64("cell_index", s.cell_index),
             codec::u64("campaign", s.campaign),
             codec::u64("replay_seed", s.replay_seed),
             codec::framed("points", s.points),
             codec::f64("wall_seconds", s.wall_seconds));
  }
};

/// The grid's outcome, points in grid order: campaign-major, then seed,
/// then flow-beacon thresholds row-major, then the tor axis. A report
/// degrades gracefully: failed cells land in `failed_cells` and
/// contribute no points, and the fingerprint covers exactly the
/// completed cells' points in cell order — so a complete run on any
/// transport reproduces run()'s digest byte-for-byte.
struct ReplayGridReport {
  std::vector<ReplayGridPoint> points;
  /// Chained SHA-256 (hex) over the serialized points; equal campaigns
  /// + equal config reproduce it at any thread count, worker count,
  /// partition shape, or retry history.
  std::string fingerprint;
  /// Cells that never produced an accepted frame, cell-index order.
  std::vector<scenario::FailedCell> failed_cells;
  /// Informational only, like wall_seconds: never fingerprinted.
  std::size_t threads_used = 0;
  double wall_seconds = 0.0;
  std::uint64_t retries = 0;        // cell re-executions scheduled
  std::uint64_t resumed_cells = 0;  // valid frames skipped on resume

  /// One CSV row per point (plus a header).
  void write_csv(std::FILE* out) const;

  /// Frame tag "OBRGRD\x00\x01" (scenario/wire.hpp); gridworker
  /// persists the merged report under it.
  static constexpr std::uint64_t kFrameMagic = 0x4f42524752440001ull;
  /// Wire layout (common/codec.hpp), in encoding order.
  static auto fields(auto& s, auto&& v) {
    return v("ReplayGridReport", codec::framed("points", s.points),
             codec::list("failed_cells", s.failed_cells),
             codec::str("fingerprint", s.fingerprint),
             codec::u64("threads_used", s.threads_used),
             codec::f64("wall_seconds", s.wall_seconds),
             codec::u64("retries", s.retries),
             codec::u64("resumed_cells", s.resumed_cells));
  }
};

class ReplayGrid {
 public:
  explicit ReplayGrid(ReplayGridConfig config = {});

  const ReplayGridConfig& config() const { return config_; }

  /// Points every run produces per (campaign, seed) cell.
  std::size_t points_per_cell() const;
  /// Cells a run over `campaign_count` campaigns sweeps (campaign-major
  /// × replay seed).
  std::size_t cell_count(std::size_t campaign_count) const {
    return campaign_count * config_.replay_seeds.size();
  }

  /// Runs one grid cell: streams `campaign`'s replay (the trace source
  /// matching the cell's campaign index) once through a FlowScorer and
  /// scores every configured threshold. ReplayGridJob::run_cell wraps
  /// it for every transport.
  ReplayGridCell run_cell(const scenario::TraceSource& campaign,
                          std::uint64_t cell_index) const;

  /// Sweeps every campaign × seed cell in-process: ReplayGridJob over
  /// scenario::run_job with config().threads, errors propagated.
  ReplayGridReport run(
      const std::vector<const scenario::TraceSource*>& campaigns) const;
  /// Single-campaign convenience.
  ReplayGridReport run(const scenario::TraceSource& campaign) const;

 private:
  ReplayGridConfig config_;
};

/// "replay_cell_000042.frame" — distinct from the campaign transport's
/// "cell_000042.frame" so the two grids can never collide in one
/// results directory.
std::string replay_cell_frame_filename(std::uint64_t cell_index);

/// A ReplayGrid as a scenario::CellJob: frames are encoded
/// ReplayGridCells, identity is (cell_index, campaign, replay_seed,
/// points-per-cell), and accepted cells collect by cell index.
///
/// `campaigns` holds one TraceSource per campaign. A null entry marks a
/// merge-only slot: its cells can be validated and collected
/// (merge_job_frames) but never executed — run_cell aborts via
/// ONION_EXPECTS.
class ReplayGridJob final : public scenario::CellJob {
 public:
  ReplayGridJob(const ReplayGrid& grid,
                std::vector<const scenario::TraceSource*> campaigns);

  std::size_t size() const override { return cells_.size(); }
  std::string frame_filename(std::uint64_t cell_index) const override;
  std::string cell_label(std::uint64_t cell_index) const override;
  std::uint64_t cell_seed(std::uint64_t cell_index) const override;
  Bytes run_cell(std::uint64_t cell_index) const override;
  bool accept_frame(std::uint64_t cell_index, BytesView framed,
                    std::string& error) override;

  /// Folds `outcome` and the accepted cells (moved out) into a report:
  /// points are the completed cells' slices concatenated in cell order,
  /// and the fingerprint covers exactly those points.
  ReplayGridReport report(scenario::GridOutcome outcome);

 private:
  const ReplayGrid& grid_;
  std::vector<const scenario::TraceSource*> campaigns_;
  std::vector<std::optional<ReplayGridCell>> cells_;
};

}  // namespace onion::detection

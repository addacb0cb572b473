// Threshold sweeps over a captured trace: grid-searches every detector
// family's tunables, scores each operating point against the trace's
// ground truth (TPR / FPR / precision), and fingerprints the whole
// sweep with a chained SHA-256 — the detection-side analogue of the
// scenario engine's snapshot-stream fingerprint, and the unit CI's
// golden-fingerprint guard diffs. Cells shard across the same
// atomic-index thread pool campaign grids use (common/parallel.hpp);
// results land at their grid index, so thread count never leaks into
// the CSV or the fingerprint.
//
// Run against a campaign-replayed trace (detection/replay.hpp) this
// reproduces the paper's Section II/VI argument as one sweep: every
// legacy family has operating points with high TPR at near-zero FPR,
// while for the OnionBot population no threshold of any detector
// separates bots from the benign Tor users sharing the trace.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "detection/flow_scorer.hpp"
#include "detection/telemetry.hpp"

namespace onion::detection {

/// Threshold grids, one axis pair (or single axis) per detector family.
/// An empty axis drops the family from the sweep.
struct RocConfig {
  std::vector<double> dga_entropy = {2.0, 2.5, 3.0, 3.5};
  std::vector<double> dga_nxdomain = {0.15, 0.35, 0.55, 0.75};

  std::vector<std::size_t> flux_distinct_ips = {5, 10, 20, 40};
  std::vector<double> flux_ttl = {120.0, 300.0, 600.0, 1200.0};

  std::vector<double> flow_size_cv = {0.1, 0.25, 0.5, 0.75};
  std::vector<double> flow_gap_cv = {0.2, 0.45, 0.7, 1.0};

  std::vector<std::size_t> p2p_degree = {2, 3, 4, 6};
  std::vector<double> p2p_interconnection = {0.01, 0.05, 0.2, 0.5};

  std::vector<std::size_t> tor_min_flows = {1, 3, 10, 30};

  /// Worker pool for the sweep; 0 = hardware concurrency.
  std::size_t threads = 0;
};

/// One population's slice of an operating point: how many of its hosts
/// the detector flagged, out of how many were monitored. Populations
/// come from the replay's ground truth (detection/replay.hpp), so a
/// single sweep resolves per-family TPR (bot families) and per-source
/// FPR (benign web vs benign Tor) without re-running any detector.
struct RocFamilyCount {
  std::string family;  // "onion", "dga", "benign_tor", ...
  std::size_t flagged = 0;
  std::size_t population = 0;

  /// Wire layout (common/codec.hpp), in encoding order.
  static auto fields(auto& s, auto&& v) {
    return v("RocFamilyCount", codec::str("family", s.family),
             codec::u64("flagged", s.flagged),
             codec::u64("population", s.population));
  }
};

/// Named host populations scored alongside the aggregate TPR/FPR. Order
/// is preserved into RocPoint::families (and so into the fingerprint);
/// an empty truth (the default) reproduces the legacy aggregate-only
/// sweep byte-for-byte.
struct GroundTruth {
  struct Population {
    std::string name;
    std::vector<HostId> hosts;
  };
  std::vector<Population> populations;
};

/// One operating point: a detector family at one threshold tuple,
/// scored against the trace's ground truth.
struct RocPoint {
  std::string detector;  // "dga-dns", "fast-flux", "flow-beacon", ...
  std::string params;    // canonical "key=value,key=value" tuple
  std::size_t flagged = 0;
  std::size_t true_positives = 0;
  std::size_t false_positives = 0;
  double tpr = 0.0;
  double fpr = 0.0;
  double precision = 0.0;
  /// Per-population counts, in GroundTruth order; empty on aggregate
  /// sweeps and serialized only when present, so legacy points (and the
  /// goldens hashing them) encode exactly as before.
  std::vector<RocFamilyCount> families;

  /// Wire layout (common/codec.hpp), in encoding order.
  static auto fields(auto& s, auto&& v) {
    return v("RocPoint", codec::str("detector", s.detector),
             codec::str("params", s.params),
             codec::u64("flagged", s.flagged),
             codec::u64("true_positives", s.true_positives),
             codec::u64("false_positives", s.false_positives),
             codec::f64("tpr", s.tpr), codec::f64("fpr", s.fpr),
             codec::f64("precision", s.precision),
             codec::trailing("families", s.families));
  }
};

/// Ground truth digested once for scoring many verdicts: the infected
/// and monitored hosts as ascending, duplicate-free lists.
struct TruthIndex {
  TruthIndex(std::vector<HostId> infected_hosts,
             std::vector<HostId> monitored_hosts);

  std::vector<HostId> infected;
  std::vector<HostId> monitored;
  std::size_t benign = 0;  // monitored hosts that are not infected
};

/// Scores one verdict: the TP/FP/TPR/FPR/precision count every report
/// shares (RocSweep here, ReplayGrid in detection/replay_grid.hpp). The
/// rates match DetectionResult's definitions (over infected / benign
/// monitored hosts). Each population `families` names gets its flagged
/// count, in order; an empty truth leaves RocPoint::families empty.
RocPoint score_verdict(std::string detector, std::string params,
                       const std::vector<HostId>& flagged,
                       const TruthIndex& truth, const GroundTruth& families);

/// Canonical params tuples of the flow-log operating points, shared by
/// every report that scores them.
std::string flow_beacon_params(double size_cv, double gap_cv);
std::string tor_flagger_params(std::size_t min_flows);

/// The sweep's outcome, points in grid order (family by family, axes in
/// row-major declaration order — never completion order).
struct RocReport {
  std::vector<RocPoint> points;
  /// codec::fingerprint of the points: chained SHA-256 (hex) over their
  /// encodings. Equal trace + equal config reproduce it byte-for-byte at
  /// any thread count.
  std::string fingerprint;
  std::size_t threads_used = 0;
  double wall_seconds = 0.0;  // informational; never fingerprinted

  /// One CSV row per point (plus a header).
  void write_csv(std::FILE* out) const;
};

/// The grid-search harness: construction enumerates the cells, run()
/// shards them over a thread pool and scores every operating point.
class RocSweep {
 public:
  explicit RocSweep(RocConfig config = {});

  std::size_t cell_count() const { return cells_.size(); }
  /// Aggregate sweep: TPR/FPR against trace.infected vs the benign rest.
  RocReport run(const TrafficTrace& trace) const;
  /// Family-resolved sweep: as above, plus per-population flagged counts
  /// (RocPoint::families) for every named population in `truth`.
  RocReport run(const TrafficTrace& trace, const GroundTruth& truth) const;

 private:
  struct Cell {
    std::string detector;
    std::string params;
    /// The cell's verdict: flow-log cells read it off the sweep's one
    /// FlowScorer pass, the others run their detector on the trace.
    std::function<std::vector<HostId>(const TrafficTrace&,
                                      const FlowScorer&)>
        detect;
  };

  RocConfig config_;
  /// Every flow-beacon and tor-flagger threshold, scored in one pass.
  FlowScorerConfig flow_scorer_;
  std::vector<Cell> cells_;
};

}  // namespace onion::detection

// NetFlow-level C&C channel detection (paper §II cites DISCLOSURE and
// BotFinder): no payload inspection, only flow metadata. C&C beacons are
// machine-generated, so per-(src,dst) flow series show
//
//   1. near-constant flow sizes (a human's page loads vary by 100x), and
//   2. timer-driven inter-arrival regularity.
//
// Both are measured as coefficients of variation (stddev/mean); a pair
// whose flows are numerous, size-stable, and clock-regular is a beacon
// channel, and its source is flagged.
//
// Against OnionBots the features degrade by construction: every flow to
// a guard relay multiplexes heartbeats, NoN shares, rendezvous setup,
// and relayed third-party broadcast cells, with per-bot jitter on every
// timer. The residual weak regularity is shared by benign Tor clients
// (circuit maintenance is timer-driven too), so any threshold that flags
// the bots flags the legitimate Tor users with them — the paper's
// point that mitigation collapses into blocking Tor wholesale.
#pragma once

#include <span>
#include <vector>

#include "detection/telemetry.hpp"

namespace onion::detection {

/// Coefficient of variation (stddev/mean, sample variance); 0 for
/// degenerate input (< 2 samples or non-positive mean). The one CV the
/// flow-beacon detector's verdicts are computed with: FlowScorer
/// (detection/flow_scorer.hpp) and its test oracle both call it.
double coefficient_of_variation(std::span<const double> xs);

struct FlowDetectorConfig {
  /// Minimum flows on a (src,dst) pair before judging it.
  std::size_t min_flows = 12;
  /// Coefficient of variation of flow sizes below which sizes count as
  /// machine-constant.
  double size_cv_threshold = 0.25;
  /// Coefficient of variation of inter-arrival gaps below which timing
  /// counts as timer-driven.
  double gap_cv_threshold = 0.45;
};

/// Flags sources owning at least one beacon-like channel: a
/// one-threshold FlowScorer pass (detection/flow_scorer.hpp).
DetectionResult detect_beacons(const TrafficTrace& trace,
                               const FlowDetectorConfig& config = {});

}  // namespace onion::detection

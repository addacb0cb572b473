#include "detection/flow_detector.hpp"

#include <cmath>
#include <utility>

#include "detection/flow_scorer.hpp"

namespace onion::detection {

double coefficient_of_variation(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  const double mean = sum / static_cast<double>(xs.size());
  if (mean <= 0.0) return 0.0;
  double var = 0.0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  return std::sqrt(var) / mean;
}

DetectionResult detect_beacons(const TrafficTrace& trace,
                               const FlowDetectorConfig& config) {
  FlowScorerConfig one;
  one.beacon_thresholds.push_back(config);
  return {score_trace(trace, std::move(one)).beacon_flagged().front()};
}

}  // namespace onion::detection

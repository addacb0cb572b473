#include "detection/flow_detector.hpp"

#include <algorithm>
#include <cmath>
#include <map>
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

std::vector<ChannelFeatures> channel_features(const TrafficTrace& trace,
                                              std::size_t min_flows) {
  struct Series {
    std::vector<double> sizes;
    std::vector<double> times;
  };
  std::map<std::pair<HostId, HostId>, Series> channels;
  for (const FlowRecord& f : trace.flows) {
    Series& s = channels[{f.src, f.dst}];
    s.sizes.push_back(static_cast<double>(f.bytes));
    s.times.push_back(static_cast<double>(f.at));
  }

  std::vector<ChannelFeatures> out;
  for (auto& [key, s] : channels) {
    if (s.sizes.size() < min_flows) continue;
    std::sort(s.times.begin(), s.times.end());
    std::vector<double> gaps;
    gaps.reserve(s.times.size() - 1);
    for (std::size_t i = 1; i < s.times.size(); ++i)
      gaps.push_back(s.times[i] - s.times[i - 1]);

    ChannelFeatures f;
    f.src = key.first;
    f.dst = key.second;
    f.flows = s.sizes.size();
    f.size_cv = coefficient_of_variation(s.sizes);
    f.gap_cv = coefficient_of_variation(gaps);
    out.push_back(f);
  }
  return out;
}

DetectionResult detect_beacons(const TrafficTrace& trace,
                               const FlowDetectorConfig& config) {
  FlowScorerConfig one;
  one.beacon_thresholds.push_back(config);
  return {score_trace(trace, std::move(one)).beacon_flagged().front()};
}

}  // namespace onion::detection

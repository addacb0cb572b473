#include "detection/tor_flagger.hpp"

#include <utility>

#include "detection/flow_scorer.hpp"

namespace onion::detection {

DetectionResult detect_tor_users(const TrafficTrace& trace,
                                 std::size_t min_flows) {
  FlowScorerConfig one;
  one.tor_min_flows.push_back(min_flows);
  return {score_trace(trace, std::move(one)).tor_flagged().front()};
}

}  // namespace onion::detection

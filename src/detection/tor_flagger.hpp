// The blunt instrument (paper §VI / §IX): flag every host that talks to
// a known Tor relay. The consensus is public, so this "detector" is
// trivially implementable — and it does flag every OnionBot. It also
// flags every legitimate Tor user, which is the paper's conclusion in
// one function: "It is impossible for Internet Service Providers to
// effectively detect and mitigate such botnet, without blocking all Tor
// access."
#pragma once

#include "detection/telemetry.hpp"

namespace onion::detection {

/// Flags every monitored host with at least `min_flows` flows to a
/// known Tor relay: a one-threshold FlowScorer pass
/// (detection/flow_scorer.hpp).
DetectionResult detect_tor_users(const TrafficTrace& trace,
                                 std::size_t min_flows = 3);

}  // namespace onion::detection

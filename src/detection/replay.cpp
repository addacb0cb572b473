#include "detection/replay.hpp"

#include <array>
#include <utility>

#include "detection/replay_grid.hpp"

namespace onion::detection {

namespace {

/// Collects a streamed capture back into a TrafficTrace.
class CollectingSink final : public FlowSink {
 public:
  explicit CollectingSink(TrafficTrace& trace) : trace_(trace) {}

  void on_relays(const std::vector<HostId>& relays) override {
    trace_.known_tor_relays = relays;
  }
  void on_dns(const DnsRecord& d) override { trace_.dns.push_back(d); }
  void on_flow(const FlowRecord& f) override { trace_.flows.push_back(f); }
  void on_host_done(HostId) override {}

 private:
  TrafficTrace& trace_;
};

/// The named populations in their fixed GroundTruth order, and where
/// each lives in a ReplayResult.
constexpr std::array<std::pair<const char*, std::vector<HostId> ReplayResult::*>,
                     7>
    kPopulations = {{
        {"onion", &ReplayResult::onion_bots},
        {"centralized", &ReplayResult::centralized_bots},
        {"dga", &ReplayResult::dga_bots},
        {"fastflux", &ReplayResult::fastflux_bots},
        {"p2p", &ReplayResult::p2p_bots},
        {"benign_web", &ReplayResult::benign_web_hosts},
        {"benign_tor", &ReplayResult::benign_tor_users},
    }};

}  // namespace

ReplayResult replay_trace(const scenario::TraceSource& campaign,
                          const ReplayConfig& config) {
  ReplayResult out;
  CollectingSink sink(out.trace);
  const StreamPopulations pops =
      replay_trace_streaming(campaign, config, sink);
  out.trace.infected = pops.infected;
  out.trace.hosts = pops.monitored;
  for (const GroundTruth::Population& pop : pops.truth.populations)
    for (const auto& [name, hosts] : kPopulations)
      if (pop.name == name) out.*hosts = pop.hosts;
  return out;
}

GroundTruth replay_ground_truth(const ReplayResult& result) {
  GroundTruth truth;
  for (const auto& [name, hosts] : kPopulations)
    if (!(result.*hosts).empty())
      truth.populations.push_back(GroundTruth::Population{name, result.*hosts});
  return truth;
}

}  // namespace onion::detection

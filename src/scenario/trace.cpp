#include "scenario/trace.hpp"

#include <algorithm>
#include <map>

#include "common/check.hpp"

namespace onion::scenario {

void CampaignTrace::on_begin(const ScenarioSpec& spec,
                             const std::vector<graph::NodeId>& initial) {
  ONION_EXPECTS(!began_);  // one campaign per trace
  began_ = true;
  spec_ = spec;
  initial_ = initial;
}

void CampaignTrace::on_event(const CampaignEvent& e) {
  ONION_EXPECTS(began_);
  events_.push_back(e);
}

void CampaignTrace::on_snapshot(const MetricsSnapshot& s) {
  snapshots_.push_back(s);
  events_before_.push_back(events_.size());
}

std::vector<BotLifetime> TraceSource::lifetimes() const {
  ONION_EXPECTS(began());
  const SimTime horizon = spec().horizon;
  // Node ids are allocated monotonically and never reused, so a map
  // keyed by id yields the sorted order directly.
  std::map<graph::NodeId, BotLifetime> alive;
  for (const graph::NodeId u : initial_nodes())
    alive.emplace(u, BotLifetime{u, 0, horizon});
  for_each_event([&](const CampaignEvent& e) {
    switch (e.kind) {
      case TraceEventKind::Join:
        alive.emplace(static_cast<graph::NodeId>(e.a),
                      BotLifetime{static_cast<graph::NodeId>(e.a), e.at,
                                  horizon});
        break;
      case TraceEventKind::Leave:
      case TraceEventKind::Takedown: {
        const auto it = alive.find(static_cast<graph::NodeId>(e.a));
        ONION_ENSURES(it != alive.end());  // only alive bots can die
        if (it->second.death == horizon) it->second.death = e.at;
        break;
      }
      case TraceEventKind::Peering:
      case TraceEventKind::SoapCapture:
      case TraceEventKind::SoapRound:
      case TraceEventKind::WaveStart:
      case TraceEventKind::AdaptiveRefresh:
      case TraceEventKind::HealPeering:
        break;  // no membership effect
    }
  });
  std::vector<BotLifetime> out;
  out.reserve(alive.size());
  for (const auto& [node, life] : alive) out.push_back(life);
  return out;
}

std::string CampaignTrace::fingerprint() const {
  return codec::fingerprint(events_);
}

}  // namespace onion::scenario

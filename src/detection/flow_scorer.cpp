#include "detection/flow_scorer.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace onion::detection {

void feed_trace(const TrafficTrace& trace, FlowSink& sink) {
  sink.on_relays(trace.known_tor_relays);
  for (const DnsRecord& d : trace.dns) sink.on_dns(d);
  // Grouping is by ascending source id (std::map), so the feed order is
  // deterministic regardless of emission interleaving.
  std::map<HostId, std::vector<const FlowRecord*>> by_src;
  for (const FlowRecord& f : trace.flows) by_src[f.src].push_back(&f);
  for (const auto& [src, records] : by_src) {
    for (const FlowRecord* f : records) sink.on_flow(*f);
    sink.on_host_done(src);
  }
}

FlowScorer::FlowScorer(FlowScorerConfig config)
    : config_(std::move(config)),
      beacon_sets_(config_.beacon_thresholds.size()),
      tor_sets_(config_.tor_min_flows.size()) {}

void FlowScorer::on_relays(const std::vector<HostId>& relays) {
  relays_ = std::set<HostId>(relays.begin(), relays.end());
}

void FlowScorer::on_flow(const FlowRecord& f) {
  ONION_EXPECTS(!finished_);
  Series& s = channels_[{f.src, f.dst}];
  s.sizes.push_back(static_cast<double>(f.bytes));
  s.times.push_back(static_cast<double>(f.at));
  ++flows_;
}

void FlowScorer::on_host_done(HostId host) { finalize_host(host); }

void FlowScorer::finalize_host(HostId host) {
  std::size_t tor_flows = 0;
  auto it = channels_.lower_bound({host, 0});
  while (it != channels_.end() && it->first.first == host) {
    Series& s = it->second;
    const std::size_t count = s.sizes.size();
    // Same arithmetic as channel_features: sizes CV as emitted, gaps CV
    // over the sorted timestamps.
    const double size_cv = coefficient_of_variation(s.sizes);
    std::sort(s.times.begin(), s.times.end());
    std::vector<double> gaps;
    gaps.reserve(count > 0 ? count - 1 : 0);
    for (std::size_t i = 1; i < s.times.size(); ++i)
      gaps.push_back(s.times[i] - s.times[i - 1]);
    const double gap_cv = coefficient_of_variation(gaps);
    for (std::size_t k = 0; k < config_.beacon_thresholds.size(); ++k) {
      const FlowDetectorConfig& c = config_.beacon_thresholds[k];
      if (count >= c.min_flows && size_cv < c.size_cv_threshold &&
          gap_cv < c.gap_cv_threshold)
        beacon_sets_[k].insert(host);
    }
    if (relays_.count(it->first.second) > 0) tor_flows += count;
    it = channels_.erase(it);
  }
  for (std::size_t k = 0; k < config_.tor_min_flows.size(); ++k)
    if (tor_flows >= config_.tor_min_flows[k] && tor_flows > 0)
      tor_sets_[k].insert(host);
}

void FlowScorer::finish() {
  ONION_EXPECTS(!finished_);
  while (!channels_.empty())
    finalize_host(channels_.begin()->first.first);
  beacon_flagged_.reserve(beacon_sets_.size());
  for (const std::set<HostId>& s : beacon_sets_)
    beacon_flagged_.emplace_back(s.begin(), s.end());
  tor_flagged_.reserve(tor_sets_.size());
  for (const std::set<HostId>& s : tor_sets_)
    tor_flagged_.emplace_back(s.begin(), s.end());
  finished_ = true;
}

const std::vector<std::vector<HostId>>& FlowScorer::beacon_flagged() const {
  ONION_EXPECTS(finished_);
  return beacon_flagged_;
}

const std::vector<std::vector<HostId>>& FlowScorer::tor_flagged() const {
  ONION_EXPECTS(finished_);
  return tor_flagged_;
}

FlowScorer score_trace(const TrafficTrace& trace, FlowScorerConfig config) {
  FlowScorer scorer(std::move(config));
  feed_trace(trace, scorer);
  scorer.finish();
  return scorer;
}

}  // namespace onion::detection

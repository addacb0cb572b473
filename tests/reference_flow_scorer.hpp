// The map-based FlowScorer, kept verbatim as a test-only oracle for the
// flat-buffer scorer in src/detection/flow_scorer.hpp — the one
// flow-beacon implementation the library ships. It holds one
// (src, dst) → Series map entry per open channel and one std::set of
// verdicts per threshold, so it is slow but obviously right; the
// differential tests in tests/replay_grid_test.cpp assert that both
// scorers produce the same verdict sets on every feed they try.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "detection/flow_detector.hpp"
#include "detection/flow_scorer.hpp"
#include "detection/telemetry.hpp"

namespace onion::detection::oracle {

class ReferenceFlowScorer final : public FlowSink {
 public:
  explicit ReferenceFlowScorer(FlowScorerConfig config)
      : config_(std::move(config)),
        beacon_sets_(config_.beacon_thresholds.size()),
        tor_sets_(config_.tor_min_flows.size()) {}

  void on_relays(const std::vector<HostId>& relays) override {
    relays_ = std::set<HostId>(relays.begin(), relays.end());
  }

  void on_flow(const FlowRecord& f) override {
    ONION_EXPECTS(!finished_);
    Series& s = channels_[{f.src, f.dst}];
    s.sizes.push_back(static_cast<double>(f.bytes));
    s.times.push_back(static_cast<double>(f.at));
    ++flows_;
  }

  void on_host_done(HostId host) override { finalize_host(host); }

  void finish() {
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

  std::uint64_t flows_scored() const { return flows_; }
  const std::vector<std::vector<HostId>>& beacon_flagged() const {
    ONION_EXPECTS(finished_);
    return beacon_flagged_;
  }
  const std::vector<std::vector<HostId>>& tor_flagged() const {
    ONION_EXPECTS(finished_);
    return tor_flagged_;
  }

 private:
  struct Series {
    std::vector<double> sizes;
    std::vector<double> times;
  };

  void finalize_host(HostId host) {
    std::size_t tor_flows = 0;
    auto it = channels_.lower_bound({host, 0});
    while (it != channels_.end() && it->first.first == host) {
      Series& s = it->second;
      const std::size_t count = s.sizes.size();
      // A channel's two features: sizes CV as emitted, gaps CV over the
      // sorted timestamps.
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

  FlowScorerConfig config_;
  std::set<HostId> relays_;
  /// Open (not yet finalized) hosts' channels, keyed (src, dst).
  std::map<std::pair<HostId, HostId>, Series> channels_;
  std::uint64_t flows_ = 0;
  bool finished_ = false;
  std::vector<std::set<HostId>> beacon_sets_;
  std::vector<std::set<HostId>> tor_sets_;
  std::vector<std::vector<HostId>> beacon_flagged_;
  std::vector<std::vector<HostId>> tor_flagged_;
};

}  // namespace onion::detection::oracle

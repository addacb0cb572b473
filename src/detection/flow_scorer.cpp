#include "detection/flow_scorer.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <utility>

#include "common/check.hpp"

namespace onion::detection {

namespace {

constexpr std::uint64_t kLow32 = 0xffffffffu;

/// Appends `host` unless it is already the last entry: a host's verdicts
/// for one threshold all land while it is being settled.
void flag(std::vector<HostId>& verdicts, HostId host) {
  if (verdicts.empty() || verdicts.back() != host) verdicts.push_back(host);
}

void sort_unique(std::vector<HostId>& hosts) {
  std::sort(hosts.begin(), hosts.end());
  hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
}

}  // namespace

void feed_trace(const TrafficTrace& trace, FlowSink& sink) {
  sink.on_relays(trace.known_tor_relays);
  for (const DnsRecord& d : trace.dns) sink.on_dns(d);
  // One sort of (src << 32 | index) keys groups the flows by ascending
  // source and keeps emission order within a source, so the feed order
  // is deterministic regardless of emission interleaving.
  ONION_EXPECTS(trace.flows.size() <= kLow32);
  std::vector<std::uint64_t> keys;
  keys.reserve(trace.flows.size());
  for (std::size_t i = 0; i < trace.flows.size(); ++i)
    keys.push_back(std::uint64_t{trace.flows[i].src} << 32 | i);
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const FlowRecord& f = trace.flows[keys[i] & kLow32];
    sink.on_flow(f);
    if (i + 1 == keys.size() || keys[i + 1] >> 32 != f.src)
      sink.on_host_done(f.src);
  }
}

FlowScorer::FlowScorer(FlowScorerConfig config)
    : config_(std::move(config)),
      min_beacon_flows_(std::numeric_limits<std::size_t>::max()),
      beacon_flagged_(config_.beacon_thresholds.size()),
      tor_flagged_(config_.tor_min_flows.size()) {
  for (const FlowDetectorConfig& c : config_.beacon_thresholds)
    min_beacon_flows_ = std::min(min_beacon_flows_, c.min_flows);
}

void FlowScorer::on_relays(const std::vector<HostId>& relays) {
  relays_ = relays;
  sort_unique(relays_);
}

void FlowScorer::on_flow(const FlowRecord& f) {
  ONION_EXPECTS(!finished_);
  if (!pending_.empty() && pending_.front().src != f.src) mixed_ = true;
  pending_.push_back({f.src, f.dst, f.bytes, f.at});
  ++flows_;
}

void FlowScorer::on_host_done(HostId host) {
  // A mixed buffer is settled by finish(); no flow of `host` may arrive
  // after this call, so deferring it changes no verdict.
  if (mixed_ || pending_.empty() || pending_.front().src != host) return;
  settle(host, pending_);
  pending_.clear();
}

void FlowScorer::group_by_dst(std::span<const Pending> flows) {
  ONION_EXPECTS(flows.size() <= kLow32);
  // Open addressing over a power-of-two prefix of slots_, at most half
  // full; bumping the generation empties it without touching a slot.
  const std::size_t capacity =
      std::max<std::size_t>(16, std::bit_ceil(2 * flows.size()));
  if (slots_.size() < capacity) slots_.assign(capacity, Slot{});
  const int shift = 64 - std::countr_zero(capacity);
  ++generation_;
  channel_dst_.clear();
  channel_end_.clear();
  channel_of_.resize(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const HostId dst = flows[i].dst;
    std::size_t s = (std::uint64_t{dst} * 0x9e3779b97f4a7c15u) >> shift;
    while (slots_[s].stamp == generation_ && slots_[s].dst != dst)
      s = (s + 1) & (capacity - 1);
    if (slots_[s].stamp != generation_) {
      slots_[s] = {dst, static_cast<std::uint32_t>(channel_dst_.size()),
                   generation_};
      channel_dst_.push_back(dst);
      channel_end_.push_back(0);
    }
    channel_of_[i] = slots_[s].channel;
    ++channel_end_[slots_[s].channel];
  }
  // Counting sort: counts become start offsets, and each scattered flow
  // advances its channel's offset to the channel's end.
  std::uint32_t start = 0;
  for (std::uint32_t& end : channel_end_) start += std::exchange(end, start);
  order_.resize(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i)
    order_[channel_end_[channel_of_[i]]++] = static_cast<std::uint32_t>(i);
}

void FlowScorer::settle(HostId host, std::span<const Pending> flows) {
  group_by_dst(flows);
  std::size_t tor_flows = 0;
  for (std::size_t c = 0, first = 0; c < channel_dst_.size();
       first = channel_end_[c++]) {
    const std::size_t last = channel_end_[c];
    const std::size_t count = last - first;
    if (std::binary_search(relays_.begin(), relays_.end(), channel_dst_[c]))
      tor_flows += count;
    if (count < min_beacon_flows_) continue;  // no threshold can flag it

    // A channel's two features: sizes CV in emission order, gaps CV
    // over the sorted timestamps.
    sizes_.clear();
    times_.clear();
    for (std::size_t k = first; k < last; ++k) {
      const Pending& p = flows[order_[k]];
      sizes_.push_back(static_cast<double>(p.bytes));
      times_.push_back(static_cast<double>(p.at));
    }
    const double size_cv = coefficient_of_variation(sizes_);
    std::sort(times_.begin(), times_.end());
    std::adjacent_difference(times_.begin(), times_.end(), times_.begin());
    const double gap_cv =
        coefficient_of_variation(std::span<const double>(times_).subspan(1));
    for (std::size_t k = 0; k < config_.beacon_thresholds.size(); ++k) {
      const FlowDetectorConfig& t = config_.beacon_thresholds[k];
      if (count >= t.min_flows && size_cv < t.size_cv_threshold &&
          gap_cv < t.gap_cv_threshold)
        flag(beacon_flagged_[k], host);
    }
  }
  for (std::size_t k = 0; k < config_.tor_min_flows.size(); ++k)
    if (tor_flows >= config_.tor_min_flows[k] && tor_flows > 0)
      flag(tor_flagged_[k], host);
}

void FlowScorer::finish() {
  ONION_EXPECTS(!finished_);
  // Hosts fed without an on_host_done, or interleaved with other hosts:
  // a stable sort by source keeps each host's emission order.
  std::stable_sort(
      pending_.begin(), pending_.end(),
      [](const Pending& a, const Pending& b) { return a.src < b.src; });
  const std::span<const Pending> rest(pending_);
  for (std::size_t first = 0, last = 0; first < rest.size(); first = last) {
    last = first + 1;
    while (last < rest.size() && rest[last].src == rest[first].src) ++last;
    settle(rest[first].src, rest.subspan(first, last - first));
  }
  pending_ = {};
  for (std::vector<HostId>& v : beacon_flagged_) sort_unique(v);
  for (std::vector<HostId>& v : tor_flagged_) sort_unique(v);
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

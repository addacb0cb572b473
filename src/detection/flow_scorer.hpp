// The one implementation of the flow-log verdicts: flow-beacon channels
// (detection/flow_detector.hpp) and Tor-relay contact
// (detection/tor_flagger.hpp). A capture streams into a FlowSink grouped
// by source host; FlowScorer collapses each host to its verdicts at every
// configured threshold as soon as the host is done, so one pass scores a
// whole threshold grid without holding the capture.
//
// Every consumer shares it: detect_beacons / detect_tor_users are
// one-threshold passes over a materialized trace (score_trace), RocSweep
// scores its flow-beacon and tor-flagger cells from one pass, and the
// replay grid (detection/replay_grid.hpp) streams synthesized captures
// straight into it.
//
// Cost model: the open host's flows sit in one reusable flat buffer of
// (src, dst, bytes, at), a flow's position being its arrival index. At
// on_host_done one linear pass groups them by dst: a generation-stamped
// open-addressing table numbers the host's channels in first-seen order,
// and a counting sort lays each channel's flows out in arrival order.
// Both coefficients of variation are then computed from reused scratch
// with coefficient_of_variation itself. The size CV sums the sizes in
// emission order — floating-point sums depend on order, so summing them
// sorted would move verdicts that sit on a threshold — and the gap CV
// runs over the channel's sorted timestamps. Relays are a sorted vector;
// each threshold's verdicts are a vector a host is appended to at most
// once per settlement, sorted and deduplicated by finish(). The
// map-based scorer this replaced lives on as a test-only oracle
// (tests/reference_flow_scorer.hpp), and a differential sweep in
// tests/replay_grid_test.cpp holds the two to equal verdict sets.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "detection/flow_detector.hpp"
#include "detection/telemetry.hpp"

namespace onion::detection {

/// Receives a streamed capture. Flows arrive grouped by source host:
/// all of a host's flows, then on_host_done(host) — after which no more
/// flows for that host may arrive. on_relays announces the public Tor
/// relay registry before any flow. A host's DNS records reach on_dns
/// before its on_host_done; flow-only sinks ignore them.
class FlowSink {
 public:
  virtual ~FlowSink() = default;
  virtual void on_relays(const std::vector<HostId>& relays) = 0;
  virtual void on_dns(const DnsRecord&) {}
  virtual void on_flow(const FlowRecord& f) = 0;
  virtual void on_host_done(HostId host) = 0;
};

/// Feeds an already-materialized trace into a sink: the relay registry,
/// the DNS log, then the flows grouped by source host (ascending), each
/// group closed by on_host_done.
void feed_trace(const TrafficTrace& trace, FlowSink& sink);

/// Every threshold the one-pass scorer evaluates.
struct FlowScorerConfig {
  /// Flow-beacon operating points (min_flows/size_cv/gap_cv each).
  std::vector<FlowDetectorConfig> beacon_thresholds;
  /// Tor-flagger min-flow thresholds.
  std::vector<std::size_t> tor_min_flows;
};

/// One-pass streaming scorer: buffers the flows of hosts not yet
/// settled, and collapses a host to verdicts at its on_host_done. Call
/// finish() after the stream ends: it settles, in ascending host order,
/// every host fed without an on_host_done, so raw ungrouped traces work
/// too. Once the buffer holds flows of two hosts (an interleaved feed),
/// on_host_done leaves settling to finish(), which sorts the buffer by
/// source once. Flagged sets are valid after finish(), sorted ascending.
class FlowScorer final : public FlowSink {
 public:
  explicit FlowScorer(FlowScorerConfig config);

  void on_relays(const std::vector<HostId>& relays) override;
  void on_flow(const FlowRecord& f) override;
  void on_host_done(HostId host) override;
  void finish();

  std::uint64_t flows_scored() const { return flows_; }
  /// Flagged hosts per beacon threshold (index-parallel with the
  /// config's beacon_thresholds), ascending.
  const std::vector<std::vector<HostId>>& beacon_flagged() const;
  /// Flagged hosts per tor min-flows threshold, ascending.
  const std::vector<std::vector<HostId>>& tor_flagged() const;

 private:
  /// One buffered flow; its index in pending_ is its arrival order.
  struct Pending {
    HostId src = 0;
    HostId dst = 0;
    std::size_t bytes = 0;
    SimTime at = 0;
  };
  /// A dst → channel table entry; live while stamp == generation_.
  struct Slot {
    HostId dst = 0;
    std::uint32_t channel = 0;
    std::uint64_t stamp = 0;
  };
  /// Numbers the distinct dsts of `flows` as channels in first-seen
  /// order and lays the flow indices out channel by channel in order_,
  /// arrival order within a channel; channel c spans
  /// [channel_end_[c-1], channel_end_[c]).
  void group_by_dst(std::span<const Pending> flows);
  /// Scores one host's flows (emission order) into the verdict vectors.
  void settle(HostId host, std::span<const Pending> flows);

  FlowScorerConfig config_;
  /// Smallest beacon min_flows: shorter channels skip the CV arithmetic.
  std::size_t min_beacon_flows_;
  std::vector<HostId> relays_;  // sorted, unique
  std::vector<Pending> pending_;
  /// pending_ holds flows of more than one source host.
  bool mixed_ = false;
  /// Scratch reused across hosts.
  std::vector<Slot> slots_;
  std::uint64_t generation_ = 0;
  std::vector<HostId> channel_dst_;
  std::vector<std::uint32_t> channel_end_;
  std::vector<std::uint32_t> channel_of_;  // per flow
  std::vector<std::uint32_t> order_;
  std::vector<double> sizes_;
  std::vector<double> times_;
  std::uint64_t flows_ = 0;
  bool finished_ = false;
  std::vector<std::vector<HostId>> beacon_flagged_;
  std::vector<std::vector<HostId>> tor_flagged_;
};

/// Scores a materialized trace: feed_trace into a fresh scorer, then
/// finish().
FlowScorer score_trace(const TrafficTrace& trace, FlowScorerConfig config);

}  // namespace onion::detection

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
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
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

/// One-pass streaming scorer: buffers per-channel size/time series only
/// for hosts not yet finalized, and collapses each host to verdicts at
/// its on_host_done. Call finish() after the stream ends (it finalizes
/// any hosts fed without an on_host_done, so raw ungrouped traces work
/// too); flagged sets are valid afterwards, sorted ascending.
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
  struct Series {
    std::vector<double> sizes;
    std::vector<double> times;
  };
  void finalize_host(HostId host);

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

/// Scores a materialized trace: feed_trace into a fresh scorer, then
/// finish().
FlowScorer score_trace(const TrafficTrace& trace, FlowScorerConfig config);

}  // namespace onion::detection

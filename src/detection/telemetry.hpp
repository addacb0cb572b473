// Network telemetry as an ISP/enterprise defender records it — the raw
// material of every detection system the paper surveys in Section II.
// Detectors in this module consume nothing else: if a signal is not in
// the DNS log or the flow log, no detector can use it. That constraint
// is the point of the module — OnionBot traffic simply leaves the
// incriminating fields empty (no DNS, no plaintext, no bot-to-bot flows
// visible past the first Tor hop).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/codec.hpp"

namespace onion::detection {

/// Identifies a monitored endpoint (a host IP, anonymized).
using HostId = std::uint32_t;

/// One DNS query observed at the resolver.
struct DnsRecord {
  HostId client = 0;
  std::string qname;
  /// NXDOMAIN answers are the DGA tell: most generated names are never
  /// registered.
  bool nxdomain = false;
  /// Answer TTL in seconds (fast-flux uses very small values).
  std::uint32_t ttl = 3600;
  /// Resolved address (0 when nxdomain). Fast-flux cycles many of these
  /// per name.
  std::uint32_t resolved = 0;
  SimTime at = 0;

  /// Wire layout (common/codec.hpp), in encoding order.
  static auto fields(auto& s, auto&& v) {
    return v("DnsRecord", codec::u64("client", s.client),
             codec::str("qname", s.qname),
             codec::boolean<1>("nxdomain", s.nxdomain),
             codec::u64("ttl", s.ttl), codec::u64("resolved", s.resolved),
             codec::u64("at", s.at));
  }
};

/// One flow record (NetFlow-style 5-tuple digest).
struct FlowRecord {
  HostId src = 0;
  HostId dst = 0;
  std::uint16_t dst_port = 0;
  std::size_t bytes = 0;
  /// Whether payload bytes look high-entropy to a DPI tap. Tor traffic
  /// is always true; legacy families vary.
  bool encrypted = false;
  SimTime at = 0;

  /// Wire layout (common/codec.hpp), in encoding order.
  static auto fields(auto& s, auto&& v) {
    return v("FlowRecord", codec::u64("src", s.src), codec::u64("dst", s.dst),
             codec::u64("dst_port", s.dst_port),
             codec::u64("bytes", s.bytes),
             codec::boolean<1>("encrypted", s.encrypted),
             codec::u64("at", s.at));
  }
};

/// A labelled capture: what the defender's sensors collected over the
/// observation window, plus ground truth for scoring detectors.
struct TrafficTrace {
  std::vector<DnsRecord> dns;
  std::vector<FlowRecord> flows;

  /// Ground truth: which monitored hosts are actually infected.
  std::vector<HostId> infected;
  /// All monitored hosts (infected plus benign).
  std::vector<HostId> hosts;

  /// Destination IDs that are publicly known Tor relays (defenders have
  /// the consensus too; knowing a host *uses* Tor is easy — knowing what
  /// it does through Tor is not).
  std::vector<HostId> known_tor_relays;

  /// Concatenates `other`'s streams onto this trace. Reserves up front
  /// (multi-population composition must not reallocate quadratically)
  /// and deduplicates the ground-truth host lists — `hosts`,
  /// `known_tor_relays`, and `infected` — preserving first-seen order,
  /// so appending overlapping captures cannot double-count a host in
  /// the TPR/FPR denominators.
  void append(const TrafficTrace& other);
};

/// Canonical serialization: the DNS and flow record counts, every record
/// through its fields(), then the infected, hosts and known_tor_relays
/// lists as codec::list. Equal bytes iff the traces are field-identical
/// — the unit the replay-determinism tests compare.
Bytes serialize(const TrafficTrace& trace);

/// SHA-256 (hex) over the canonical serialization, streamed record by
/// record so fingerprinting a large trace never materializes the bytes.
std::string fingerprint(const TrafficTrace& trace);

/// A detector's verdict over a trace.
struct DetectionResult {
  std::vector<HostId> flagged;

  /// Scores against ground truth: flagged_fraction over the infected
  /// hosts, and over the monitored hosts that are not infected.
  double true_positive_rate(const TrafficTrace& trace) const;
  double false_positive_rate(const TrafficTrace& trace) const;
};

/// Fraction of `population` that `result` flagged — per-family TPR (or
/// FPR, for a benign population) over a composed trace. 0 on an empty
/// population.
double flagged_fraction(const DetectionResult& result,
                        const std::vector<HostId>& population);

}  // namespace onion::detection

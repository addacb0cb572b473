#include "detection/telemetry.hpp"

#include <algorithm>
#include <unordered_set>

#include "crypto/sha256.hpp"

namespace onion::detection {

namespace {

/// Appends `src` onto `dst`, skipping ids `dst` already holds;
/// first-seen order is preserved so composition stays deterministic.
void append_unique(std::vector<HostId>& dst, const std::vector<HostId>& src) {
  std::unordered_set<HostId> seen(dst.begin(), dst.end());
  dst.reserve(dst.size() + src.size());
  for (const HostId h : src)
    if (seen.insert(h).second) dst.push_back(h);
}

/// A host list as codec::list lays it out: a word count, then one word
/// per host.
Bytes encode_hosts(const char* name, const std::vector<HostId>& hosts) {
  Bytes out;
  codec::list(name, hosts).put(out);
  return out;
}

/// Feeds every record of `trace` through `consume` in canonical order;
/// serialize() and fingerprint() share this walk.
template <typename Consume>
void walk_canonical(const TrafficTrace& trace, Consume&& consume) {
  Bytes header;
  put_u64(header, trace.dns.size());
  put_u64(header, trace.flows.size());
  consume(header);
  for (const DnsRecord& r : trace.dns) consume(codec::encode(r));
  for (const FlowRecord& f : trace.flows) consume(codec::encode(f));
  consume(encode_hosts("infected", trace.infected));
  consume(encode_hosts("hosts", trace.hosts));
  consume(encode_hosts("known_tor_relays", trace.known_tor_relays));
}

}  // namespace

void TrafficTrace::append(const TrafficTrace& other) {
  dns.reserve(dns.size() + other.dns.size());
  dns.insert(dns.end(), other.dns.begin(), other.dns.end());
  flows.reserve(flows.size() + other.flows.size());
  flows.insert(flows.end(), other.flows.begin(), other.flows.end());
  append_unique(infected, other.infected);
  append_unique(hosts, other.hosts);
  append_unique(known_tor_relays, other.known_tor_relays);
}

Bytes serialize(const TrafficTrace& trace) {
  Bytes out;
  walk_canonical(trace, [&out](const Bytes& chunk) { append(out, chunk); });
  return out;
}

std::string fingerprint(const TrafficTrace& trace) {
  crypto::Sha256 hasher;
  walk_canonical(trace,
                 [&hasher](const Bytes& chunk) { hasher.update(chunk); });
  const crypto::Sha256Digest digest = hasher.finalize();
  return to_hex(BytesView(digest.data(), digest.size()));
}

double DetectionResult::true_positive_rate(const TrafficTrace& trace) const {
  return flagged_fraction(*this, trace.infected);
}

double DetectionResult::false_positive_rate(
    const TrafficTrace& trace) const {
  const std::unordered_set<HostId> infected(trace.infected.begin(),
                                            trace.infected.end());
  std::vector<HostId> benign;
  for (const HostId h : trace.hosts)
    if (infected.count(h) == 0) benign.push_back(h);
  return flagged_fraction(*this, benign);
}

double flagged_fraction(const DetectionResult& result,
                        const std::vector<HostId>& population) {
  if (population.empty()) return 0.0;
  const std::unordered_set<HostId> flagged(result.flagged.begin(),
                                           result.flagged.end());
  std::size_t hits = 0;
  for (const HostId h : population)
    if (flagged.count(h) > 0) ++hits;
  return static_cast<double>(hits) / static_cast<double>(population.size());
}

}  // namespace onion::detection

#include "detection/traffic.hpp"

#include "common/check.hpp"

namespace onion::detection {

namespace {

/// A few plausibly popular sites for benign DNS noise.
constexpr std::array<const char*, 8> kPopularSites = {
    "search.example",  "video.example",  "social.example", "news.example",
    "mail.example",    "shop.example",   "wiki.example",   "cdn.example",
};

/// Benign-looking pseudo-word for synthetic domains (low entropy,
/// pronounceable-ish — what DGA classifiers contrast against).
std::string benign_name(Rng& rng) {
  static constexpr const char* kVowels = "aeiou";
  static constexpr const char* kConsonants = "bcdfghklmnprstvw";
  std::string out;
  const std::size_t syllables = 2 + rng.uniform(2);
  for (std::size_t s = 0; s < syllables; ++s) {
    out.push_back(kConsonants[rng.uniform(16)]);
    out.push_back(kVowels[rng.uniform(5)]);
  }
  out += ".example";
  return out;
}

/// High-entropy generated label, the classic DGA shape (Conficker-like).
std::string dga_name(Rng& rng) {
  std::string out;
  const std::size_t len = 12 + rng.uniform(8);
  for (std::size_t i = 0; i < len; ++i)
    out.push_back(static_cast<char>('a' + rng.uniform(26)));
  out += ".example";
  return out;
}

/// Hosts `count` fresh IDs starting at `next`, appending them to `trace`.
std::vector<HostId> allocate_hosts(TrafficTrace& trace, HostId& next,
                                   std::size_t count) {
  std::vector<HostId> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(next);
    trace.hosts.push_back(next);
    ++next;
  }
  return out;
}

/// Marks freshly allocated bots as ground-truth infected.
std::vector<HostId> allocate_bots(TrafficTrace& trace, HostId& next,
                                  std::size_t count) {
  const std::vector<HostId> bots = allocate_hosts(trace, next, count);
  trace.infected.insert(trace.infected.end(), bots.begin(), bots.end());
  return bots;
}

}  // namespace

void emit_browsing(TrafficTrace& trace, HostId host, SimTime start,
                   SimTime stop, Rng& rng) {
  SimTime t = start + rng.uniform(5 * kMinute);
  while (t < stop) {
    DnsRecord dns;
    dns.client = host;
    dns.qname = rng.uniform(3) == 0 ? benign_name(rng)
                                    : kPopularSites[rng.uniform(8)];
    dns.nxdomain = rng.uniform(50) == 0;  // the odd typo
    dns.ttl = 300 + static_cast<std::uint32_t>(rng.uniform(3300));
    dns.resolved =
        dns.nxdomain ? 0 : 0x0a000000u + static_cast<std::uint32_t>(
                                             rng.uniform(1 << 16));
    dns.at = t;
    trace.dns.push_back(dns);

    if (!dns.nxdomain) {
      FlowRecord flow;
      flow.src = host;
      flow.dst = dns.resolved;
      flow.dst_port = rng.uniform(4) == 0 ? 80 : 443;
      flow.bytes = 2'000 + rng.uniform(400'000);
      flow.encrypted = flow.dst_port == 443;
      flow.at = t + kSecond;
      trace.flows.push_back(flow);
    }
    // Think time between page visits: human-irregular.
    t += 30 * kSecond + rng.uniform(20 * kMinute);
  }
}

std::array<HostId, 3> pick_guards(const std::vector<HostId>& relays,
                                  Rng& rng) {
  ONION_EXPECTS(!relays.empty());
  // Each client sticks to a small guard set, like real Tor.
  return {
      relays[rng.uniform(relays.size())],
      relays[rng.uniform(relays.size())],
      relays[rng.uniform(relays.size())],
  };
}

FlowRecord tor_cell_flow(HostId host, HostId guard, SimTime at, Rng& rng) {
  FlowRecord flow;
  flow.src = host;
  flow.dst = guard;
  flow.dst_port = 9001;
  // Tor moves fixed 512-byte cells; flow sizes are cell multiples.
  flow.bytes = 512 * (1 + rng.uniform(512));
  flow.encrypted = true;
  flow.at = at;
  return flow;
}

void emit_tor_client(TrafficTrace& trace, HostId host,
                     const std::array<HostId, 3>& guards, SimTime start,
                     SimTime stop, SimDuration mean_gap, Rng& rng) {
  SimTime t = start + rng.uniform(mean_gap);
  while (t < stop) {
    const HostId guard = guards[rng.uniform(guards.size())];
    trace.flows.push_back(tor_cell_flow(host, guard, t, rng));
    t += mean_gap / 2 + rng.uniform(mean_gap);
  }
}

std::vector<HostId> register_tor_relays(TrafficTrace& trace,
                                        std::size_t count, HostId& next) {
  std::vector<HostId> relays;
  relays.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    relays.push_back(next);
    trace.known_tor_relays.push_back(next);
    ++next;
  }
  return relays;
}

BenignPopulation emit_benign(TrafficTrace& trace, SimDuration window,
                             std::size_t web, std::size_t tor_users,
                             std::size_t tor_relays, SimDuration tor_mean_gap,
                             HostId& next, Rng& rng) {
  BenignPopulation out;
  out.web_hosts = allocate_hosts(trace, next, web);
  for (const HostId h : out.web_hosts)
    emit_browsing(trace, h, 0, window, rng);

  if (tor_users > 0) {
    out.relays = register_tor_relays(trace, tor_relays, next);
    out.tor_users = allocate_hosts(trace, next, tor_users);
    for (const HostId h : out.tor_users) {
      emit_browsing(trace, h, 0, window, rng);  // Tor users browse too
      emit_tor_client(trace, h, pick_guards(out.relays, rng), 0, window,
                      tor_mean_gap, rng);
    }
  }
  return out;
}

std::vector<HostId> emit_centralized_bots(TrafficTrace& trace,
                                          std::size_t bots,
                                          SimDuration window, HostId& next,
                                          Rng& rng) {
  const std::uint32_t cnc_ip = 0xc0a80001;
  const auto ids = allocate_bots(trace, next, bots);
  for (const HostId bot : ids) {
    emit_browsing(trace, bot, 0, window, rng);  // the user still browses
    SimTime t = rng.uniform(5 * kMinute);
    while (t < window) {
      DnsRecord dns;
      dns.client = bot;
      dns.qname = "update-service.example";  // the one hardcoded domain
      dns.ttl = 3600;
      dns.resolved = cnc_ip;
      dns.at = t;
      trace.dns.push_back(dns);

      FlowRecord poll;
      poll.src = bot;
      poll.dst = cnc_ip;
      poll.dst_port = 80;
      poll.bytes = 600 + rng.uniform(64);  // tiny beacon, near-constant
      poll.encrypted = false;
      poll.at = t + kSecond;
      trace.flows.push_back(poll);
      t += 5 * kMinute + rng.uniform(30 * kSecond);  // timer-regular
    }
  }
  return ids;
}

std::vector<HostId> emit_dga_bots(TrafficTrace& trace, std::size_t bots,
                                  SimDuration window, HostId& next,
                                  Rng& rng) {
  const auto ids = allocate_bots(trace, next, bots);
  for (const HostId bot : ids) {
    emit_browsing(trace, bot, 0, window, rng);
    // Every rendezvous period the bot walks the generated list until one
    // name resolves; law enforcement never registered the first N-1.
    for (SimTime period = 0; period < window; period += 6 * kHour) {
      const std::size_t attempts = 40 + rng.uniform(40);
      SimTime t = period + rng.uniform(10 * kMinute);
      for (std::size_t i = 0; i + 1 < attempts; ++i) {
        DnsRecord miss;
        miss.client = bot;
        miss.qname = dga_name(rng);
        miss.nxdomain = true;
        miss.ttl = 0;
        miss.at = t;
        trace.dns.push_back(miss);
        t += kSecond + rng.uniform(2 * kSecond);
      }
      DnsRecord hit;
      hit.client = bot;
      hit.qname = dga_name(rng);  // today's registered name
      hit.ttl = 600;
      hit.resolved = 0xc0a80002;
      hit.at = t;
      trace.dns.push_back(hit);

      FlowRecord flow;
      flow.src = bot;
      flow.dst = hit.resolved;
      flow.dst_port = 80;
      flow.bytes = 900 + rng.uniform(128);
      flow.encrypted = false;
      flow.at = t + kSecond;
      trace.flows.push_back(flow);
    }
  }
  return ids;
}

std::vector<HostId> emit_fastflux_bots(TrafficTrace& trace,
                                       std::size_t bots,
                                       SimDuration window, HostId& next,
                                       Rng& rng) {
  const auto ids = allocate_bots(trace, next, bots);
  // The flux pool: hundreds of compromised front IPs, rotated per query.
  const std::size_t pool = 400;
  for (const HostId bot : ids) {
    emit_browsing(trace, bot, 0, window, rng);
    SimTime t = rng.uniform(5 * kMinute);
    while (t < window) {
      DnsRecord dns;
      dns.client = bot;
      dns.qname = "promo-deals.example";  // the fluxed domain
      dns.ttl = 60 + static_cast<std::uint32_t>(rng.uniform(240));
      dns.resolved =
          0xac100000u + static_cast<std::uint32_t>(rng.uniform(pool));
      dns.at = t;
      trace.dns.push_back(dns);

      FlowRecord flow;
      flow.src = bot;
      flow.dst = dns.resolved;
      flow.dst_port = 80;
      flow.bytes = 800 + rng.uniform(256);
      flow.encrypted = false;
      flow.at = t + kSecond;
      trace.flows.push_back(flow);
      t += 10 * kMinute + rng.uniform(2 * kMinute);
    }
  }
  return ids;
}

std::vector<HostId> emit_p2p_bots(TrafficTrace& trace, std::size_t bots,
                                  SimDuration window, HostId& next,
                                  Rng& rng) {
  const auto ids = allocate_bots(trace, next, bots);
  for (const HostId bot : ids) emit_browsing(trace, bot, 0, window, rng);
  // Gossip mesh: each bot keeps pinging a handful of fixed peers with the
  // family's recognizable message sizes (Storm's OVERNET heritage).
  for (const HostId bot : ids) {
    std::array<HostId, 4> peers{};
    for (auto& p : peers) {
      do {
        p = ids[rng.uniform(ids.size())];
      } while (p == bot && ids.size() > 1);
    }
    SimTime t = rng.uniform(kMinute);
    while (t < window) {
      FlowRecord flow;
      flow.src = bot;
      flow.dst = peers[rng.uniform(peers.size())];
      flow.dst_port = 7871;
      flow.bytes = 25 + rng.uniform(4);  // tiny keep-alive datagrams
      flow.encrypted = false;            // XOR "crypto" reads as plaintext
      flow.at = t;
      trace.flows.push_back(flow);
      t += 30 * kSecond + rng.uniform(30 * kSecond);
    }
  }
  return ids;
}

}  // namespace onion::detection

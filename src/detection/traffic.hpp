// Synthetic telemetry emitters for the detection experiments: one per
// botnet architecture the paper surveys (Section II), plus benign
// background. Each emitter appends the telemetry an on-path defender
// would actually record over an observation window — the models encode
// the published behavioural signatures:
//
//   Centralized HTTP  fixed C&C domain, periodic polling (GT-Bots,
//                     Clickbot.a style)
//   DGA               hundreds of algorithmically generated lookups per
//                     period, almost all NXDOMAIN (Torpig, Conficker)
//   Fast-flux         one domain, many short-TTL A records in rotation
//                     (single flux; honeynet project description)
//   P2P plaintext     unencrypted bot-to-bot gossip with a recognizable
//                     size signature (Storm/Stormnet style)
//   OnionBot          nothing but encrypted, fixed-size-cell flows to
//                     public Tor relays; no DNS at all (.onion names
//                     never touch the resolver)
//
// Benign background mixes normal web browsing and — crucially for the
// false-positive story — legitimate Tor users, who look exactly like
// OnionBots from the flow log.
//
// These are building blocks, not captures: the campaign-replay
// synthesizer (detection/replay_grid.hpp, replay_trace_streaming) is
// the one place that stacks them into a co-resident multi-family trace,
// and it emits the OnionBot population from a recorded campaign.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "detection/telemetry.hpp"

namespace onion::detection {

// Each population emitter appends one population to an existing trace,
// allocating monitored-host ids from `next` (advanced past the
// allocation), so arbitrary mixes — benign + several co-resident botnet
// families — compose into a single capture without id collisions.

/// Who the benign mix allocated — the per-population ground truth the
/// replay compositor reports FPRs against.
struct BenignPopulation {
  std::vector<HostId> web_hosts;
  std::vector<HostId> tor_users;
  std::vector<HostId> relays;
};

/// Benign mix over [0, window): `web` browsing hosts, plus (when
/// `tor_users > 0`) a `tor_relays`-relay registry and the legitimate Tor
/// users, who browse too and contact their guards every `tor_mean_gap`
/// on average.
BenignPopulation emit_benign(TrafficTrace& trace, SimDuration window,
                             std::size_t web, std::size_t tor_users,
                             std::size_t tor_relays, SimDuration tor_mean_gap,
                             HostId& next, Rng& rng);

/// Registers `count` public Tor relay ids in the trace (defenders know
/// the consensus). Relays are destinations, not monitored hosts.
std::vector<HostId> register_tor_relays(TrafficTrace& trace,
                                        std::size_t count, HostId& next);

/// Web-browsing telemetry for one already-allocated host, active over
/// [start, stop).
void emit_browsing(TrafficTrace& trace, HostId host, SimTime start,
                   SimTime stop, Rng& rng);

/// A Tor client's sticky guard set (like real Tor, a small fixed set).
std::array<HostId, 3> pick_guards(const std::vector<HostId>& relays,
                                  Rng& rng);

/// One encrypted, cell-quantized flow into a guard — the only
/// observable an OnionBot or a legitimate Tor user ever produces.
FlowRecord tor_cell_flow(HostId host, HostId guard, SimTime at, Rng& rng);

/// Tor-client telemetry for one host over [start, stop): encrypted,
/// cell-quantized flows into its guard set, no meaningful DNS (Tor
/// resolves remotely).
void emit_tor_client(TrafficTrace& trace, HostId host,
                     const std::array<HostId, 3>& guards, SimTime start,
                     SimTime stop, SimDuration mean_gap, Rng& rng);

/// Infected populations, one per legacy family. Each allocates `bots`
/// fresh monitored hosts (recorded in trace.infected), lets the human
/// owner keep browsing, and emits the family's C&C signature over
/// [0, window). Returns the allocated bot ids.
std::vector<HostId> emit_centralized_bots(TrafficTrace& trace,
                                          std::size_t bots,
                                          SimDuration window, HostId& next,
                                          Rng& rng);
std::vector<HostId> emit_dga_bots(TrafficTrace& trace, std::size_t bots,
                                  SimDuration window, HostId& next,
                                  Rng& rng);
std::vector<HostId> emit_fastflux_bots(TrafficTrace& trace,
                                       std::size_t bots,
                                       SimDuration window, HostId& next,
                                       Rng& rng);
std::vector<HostId> emit_p2p_bots(TrafficTrace& trace, std::size_t bots,
                                  SimDuration window, HostId& next,
                                  Rng& rng);

}  // namespace onion::detection

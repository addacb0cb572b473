// The cross-layer DDSR property check. One initial topology (the
// message-level botnet's overlay at t = 0) and one kill sequence run
// through both layers that implement §IV-C: the bots over simulated Tor
// (core/botnet) and the graph-level DdsrEngine. Each layer must end with
// every alive bot inside [dmin, dmax] or out of NoN candidates, and in
// one component.
//
// Both layers are judged on mutual links: band, components and NoN
// candidates alike. Half-open peer entries (A lists B, B does not list
// A) exist only in the message layer; they are counted, not judged. A
// half-open entry can leave a bot in band by its own table but below
// dmin on mutual links, where its DDSR decisions never see the gap;
// such bots are counted too, and the checks require none.
#pragma once

#include <cstdint>
#include <vector>

#include "core/botnet.hpp"
#include "core/ddsr.hpp"
#include "graph/metrics.hpp"

namespace onion::core {

struct CrossLayerSpec {
  std::uint64_t seed = 1;
  std::size_t bots = 24;
  std::size_t degree = 6;
  std::size_t dmin = 4;
  std::size_t dmax = 8;
  std::size_t kills = 6;
  SimDuration kill_gap = 20 * kMinute;
  SimDuration quiet = 60 * kMinute;
};

/// One layer's overlay after the kill sequence.
struct LayerHealth {
  std::size_t components = 0;
  /// Alive bots outside [dmin, dmax] that still have a NoN candidate.
  std::vector<graph::NodeId> out_of_band;
};

struct CrossLayerOutcome {
  LayerHealth bots;  // message level
  LayerHealth ddsr;  // graph level
  std::size_t half_open = 0;
  /// Bots below dmin on mutual links, though not by their own table.
  std::size_t short_on_mutual_links = 0;
};

/// Health of overlay `g`.
inline LayerHealth layer_health(const graph::Graph& g, std::size_t dmin,
                                std::size_t dmax) {
  LayerHealth out;
  out.components = graph::connected_components(g).count;
  std::vector<std::uint8_t> mark;
  std::vector<graph::NodeId> candidates;
  for (const graph::NodeId u : g.alive_nodes()) {
    const std::size_t d = g.degree(u);
    if (d > dmax) {
      out.out_of_band.push_back(u);
    } else if (d < dmin) {
      graph::non_candidates(g, u, mark, candidates);
      if (!candidates.empty()) out.out_of_band.push_back(u);
    }
  }
  return out;
}

/// Peer-table entries between alive bots that the other side lacks.
inline std::size_t half_open_entries(const Botnet& net) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < net.num_bots(); ++i) {
    const Bot& a = net.bot(i);
    if (!a.alive()) continue;
    for (const auto& [addr, unused] : a.peers()) {
      const auto j = net.bot_by_address(addr);
      if (j && net.bot(*j).alive() &&
          net.bot(*j).peers().count(a.address()) == 0)
        ++count;
    }
  }
  return count;
}

inline CrossLayerOutcome run_cross_layer(const CrossLayerSpec& spec) {
  Botnet::Params p;
  p.num_bots = spec.bots;
  p.initial_degree = spec.degree;
  p.seed = spec.seed;
  p.tor.num_relays = 20;
  p.bot.dmin = spec.dmin;
  p.bot.dmax = spec.dmax;
  p.bot.heartbeat_interval = 60 * kSecond;
  p.bot.non_share_interval = 3 * kMinute;
  Botnet net(p);

  graph::Graph g = net.overlay_snapshot();
  Rng rng(spec.seed);
  DdsrEngine engine(g, DdsrPolicy{.dmin = spec.dmin, .dmax = spec.dmax},
                    rng);
  for (std::size_t k = 0; k < spec.kills; ++k) {
    const auto alive = g.alive_nodes();
    const graph::NodeId victim = alive[rng.uniform(alive.size())];
    net.kill_bot(victim);
    net.run_for(spec.kill_gap);  // heartbeats detect, bots repair
    engine.remove_node(victim);
  }
  net.run_for(spec.quiet);

  CrossLayerOutcome out;
  const graph::Graph mutual = net.overlay_snapshot();
  out.bots = layer_health(mutual, spec.dmin, spec.dmax);
  out.ddsr = layer_health(g, spec.dmin, spec.dmax);
  out.half_open = half_open_entries(net);
  for (const graph::NodeId u : mutual.alive_nodes())
    if (mutual.degree(u) < spec.dmin && net.bot(u).degree() >= spec.dmin)
      ++out.short_on_mutual_links;
  return out;
}

}  // namespace onion::core

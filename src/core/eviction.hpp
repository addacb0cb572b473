// The one eviction choice of the graph-level layers: the peer with the
// highest degree, ties broken uniformly. OverlayNetwork::request_peering
// ranks a full target's peers by declared degree (the SOAP-exploitable
// acceptance rule, Figure 7 step 4); DdsrEngine::prune_node ranks them
// by true degree (the paper's pruning rule, §IV-C).
//
// The message-level bot layer (core/botnet.cpp) ranks by declared degree
// too but draws no random numbers: it scans its address-ordered peer map,
// and Bot::on_peer_request evicts the *last* tied peer while
// Bot::prune_if_needed sheds the *first*. Those tie-breaks are left as
// they are; changing them would move the live-SOAP tests.
#pragma once

#include <cstddef>
#include <span>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace onion::core {

/// The chosen peer and the degree it was ranked by.
struct Eviction {
  graph::NodeId peer = graph::kInvalidNode;
  std::size_t degree = 0;
};

/// The peer maximizing `degree(p)`, uniform over ties (reservoir
/// sampling: one rng draw per tied peer after the first). A peer of
/// degree 0 is never chosen, so all-zero or empty `peers` yield
/// {kInvalidNode, 0}.
template <typename DegreeFn>
Eviction highest_degree_peer(std::span<const graph::NodeId> peers,
                             DegreeFn degree, Rng& rng) {
  Eviction out;
  std::size_t ties = 0;
  for (const graph::NodeId p : peers) {
    const std::size_t d = degree(p);
    if (d > out.degree) {
      out = {p, d};
      ties = 1;
    } else if (d == out.degree && d > 0 && rng.uniform(++ties) == 0) {
      out.peer = p;
    }
  }
  return out;
}

}  // namespace onion::core

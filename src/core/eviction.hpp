// The one eviction choice of every layer: the peer with the highest
// degree, ties broken uniformly from the caller's Rng. Both paper rules
// that remove "the peer with the highest degree" use it:
//   - acceptance (Figure 7 step 4, the rule SOAP exploits): a full node
//     evicts its top peer by declared degree for a requester that
//     undercuts it. OverlayNetwork::request_peering, Bot::on_peer_request;
//   - pruning (§IV-C): a node above dmax sheds its top peer.
//     DdsrEngine::prune_node ranks by true degree, Bot::prune_if_needed
//     by declared degree.
#pragma once

#include <cstddef>
#include <ranges>

#include "common/rng.hpp"

namespace onion::core {

/// The chosen peer and the degree it was ranked by.
template <typename It>
struct Eviction {
  It peer;
  std::size_t degree = 0;
};

/// The element of `peers` maximizing `degree(element)`, uniform over
/// ties (reservoir sampling). The first peer is taken without a draw;
/// each later peer tied with the best so far costs one draw, so k tied
/// peers cost k - 1 draws and an untied maximum costs none. Degree 0 is
/// an ordinary degree: a bot still rallying declares 0 and stays
/// prunable. Empty `peers` yield {end, 0}.
template <std::ranges::forward_range Range, typename DegreeFn>
Eviction<std::ranges::iterator_t<Range>> highest_degree_peer(
    Range& peers, DegreeFn degree, Rng& rng) {
  auto it = std::ranges::begin(peers);
  const auto end = std::ranges::end(peers);
  if (it == end) return {it, 0};
  Eviction<std::ranges::iterator_t<Range>> out{it, degree(*it)};
  std::size_t ties = 1;
  for (++it; it != end; ++it) {
    const std::size_t d = degree(*it);
    if (d > out.degree) {
      out = {it, d};
      ties = 1;
    } else if (d == out.degree && rng.uniform(++ties) == 0) {
      out.peer = it;
    }
  }
  return out;
}

}  // namespace onion::core

#include "core/ddsr.hpp"

#include "core/eviction.hpp"

namespace onion::core {

using graph::NodeId;

void DdsrEngine::remove_node_no_repair(NodeId u) {
  graph_.remove_node(u);
  ++stats_.nodes_removed;
}

void DdsrEngine::remove_node(NodeId u) {
  const std::vector<NodeId> former = graph_.neighbors(u);
  graph_.remove_node(u);
  ++stats_.nodes_removed;

  // Repairing: reconnect the hole.
  switch (policy_.repair) {
    case DdsrPolicy::Repair::PairwiseFull:
      repair_clique(former);
      break;
    case DdsrPolicy::Repair::RandomMatch: {
      std::vector<NodeId> shuffled = former;
      rng_.shuffle(shuffled);
      for (std::size_t i = 0; i + 1 < shuffled.size(); i += 2)
        connect_edge(shuffled[i], shuffled[i + 1],
                     stats_.repair_edges_added);
      break;
    }
  }

  // Pruning: former neighbors above dmax shed edges; every node that lost
  // an edge (prune victims included) is a refill candidate.
  std::vector<NodeId> refill_candidates = former;
  if (policy_.prune) {
    for (const NodeId v : former) prune_node(v, refill_candidates);
  }

  if (policy_.refill) {
    for (const NodeId v : refill_candidates) refill_node(v);
  }
}

void DdsrEngine::repair_clique(const std::vector<NodeId>& former) {
  // Clique the dead node's former neighbors (paper rule). Without
  // pruning, degrees grow into the thousands (that growth *is* the
  // Figure 4c result), so membership tests use scratch bitmaps: cost per
  // deleted node is O(|former|^2 + sum of former degrees), with every
  // test O(1).
  if (former.size() < 2) return;
  const std::size_t cap = graph_.capacity();
  if (adjacent_.size() < cap) adjacent_.resize(cap, 0);
  for (std::size_t i = 0; i < former.size(); ++i) {
    const NodeId u = former[i];
    if (connect_) {
      // Charged path: the connector's peering policy can evict edges
      // anywhere in the graph (including u's own), so membership tests
      // go through the graph per request and no scratch bitmap state is
      // carried across its side effects. Healing is rare relative to
      // Figure-4-scale repair, so the O(deg) tests are affordable here.
      for (std::size_t j = i + 1; j < former.size(); ++j)
        connect_edge(u, former[j], stats_.repair_edges_added);
      continue;
    }
    // Mark u's existing neighbors, connect to every unmarked later
    // member, then unmark.
    for (const NodeId w : graph_.neighbors(u)) adjacent_[w] = 1;
    for (std::size_t j = i + 1; j < former.size(); ++j) {
      const NodeId v = former[j];
      if (adjacent_[v]) continue;
      graph_.add_edge_unchecked(u, v);
      ++stats_.repair_edges_added;
    }
    for (const NodeId w : graph_.neighbors(u)) adjacent_[w] = 0;
  }
}

bool DdsrEngine::connect_edge(NodeId a, NodeId b, std::uint64_t& counter) {
  if (!connect_) {
    if (!graph_.add_edge(a, b)) return false;  // duplicate: no-op
    ++counter;
    return true;
  }
  if (a == b || graph_.has_edge(a, b)) return false;
  if (!connect_(a, b)) {
    ++stats_.heal_requests_denied;
    return false;
  }
  ++counter;
  return true;
}

void DdsrEngine::prune_node(NodeId v, std::vector<NodeId>& lost_edge) {
  if (!graph_.alive(v)) return;
  while (graph_.degree(v) > policy_.dmax) {
    const auto& peers = graph_.neighbors(v);
    NodeId victim = graph::kInvalidNode;
    switch (policy_.victim) {
      case DdsrPolicy::Victim::HighestDegree:
        // Highest-degree neighbor; ties broken uniformly (paper rule).
        victim = *highest_degree_peer(
                      peers, [&](NodeId p) { return graph_.degree(p); },
                      rng_)
                      .peer;
        break;
      case DdsrPolicy::Victim::Random:
        victim = peers[static_cast<std::size_t>(rng_.uniform(peers.size()))];
        break;
    }
    graph_.remove_edge(v, victim);
    ++stats_.prune_edges_removed;
    lost_edge.push_back(victim);
  }
}

void DdsrEngine::refill_node(NodeId v) {
  // Work queue: refilling through a full acceptor evicts one of its
  // peers, which then sits below dmin itself and must be refilled in
  // turn. Dropping those cascade victims is how holes silently appear,
  // so they are re-enqueued here. A step guard bounds pathological
  // add/evict cycles (possible when dmin == dmax and ties break badly).
  std::vector<NodeId> pending{v};
  std::vector<NodeId> candidates;
  std::vector<NodeId> with_capacity;
  int guard = 0;
  while (!pending.empty() && guard < 512) {
    const NodeId u = pending.back();
    pending.pop_back();
    if (!graph_.alive(u)) continue;
    while (graph_.degree(u) < policy_.dmin && guard++ < 512) {
      // Candidates: alive neighbors-of-neighbors not already adjacent.
      // Nodes with spare capacity are preferred (a full node only
      // accepts by evicting — the bot-level acceptance rule).
      graph::non_candidates(graph_, u, adjacent_, candidates);
      if (candidates.empty()) break;  // NoN exhausted; dmin is best-effort
      with_capacity.clear();
      for (const NodeId c : candidates)
        if (graph_.degree(c) < policy_.dmax) with_capacity.push_back(c);
      const auto& pool = with_capacity.empty() ? candidates : with_capacity;
      const NodeId pick =
          pool[static_cast<std::size_t>(rng_.uniform(pool.size()))];
      // A charged refill can be denied (PoW/rate limit); the node gives
      // up for now like OverlayNetwork::refill — a later repair or
      // defense round may retry. Uncharged adds never fail here
      // (candidates exclude existing edges).
      if (!connect_edge(u, pick, stats_.refill_edges_added)) break;
      // A full acceptor evicts its highest-degree neighbor, mirroring
      // Bot::on_peer_request; the victim is queued for its own refill.
      if (policy_.prune && graph_.degree(pick) > policy_.dmax) {
        std::vector<NodeId> lost;
        prune_node(pick, lost);
        for (const NodeId w : lost)
          if (w != u) pending.push_back(w);
      }
    }
  }
}

}  // namespace onion::core

#include "core/overlay.hpp"

#include <algorithm>
#include <cmath>

#include "core/eviction.hpp"
#include "graph/generators.hpp"

namespace onion::core {

using graph::NodeId;

OverlayNetwork OverlayNetwork::random_regular(std::size_t n, std::size_t k,
                                              OverlayConfig config,
                                              Rng& rng) {
  OverlayNetwork net(config, rng);
  net.graph_ = graph::random_regular(n, k, rng);
  net.graph_.order_lower_neighbors_first();
  net.honest_.assign(n, 1);
  net.declared_.assign(n, kTruthful32);
  net.requests_seen_.assign(n, 0);
  net.accepted_this_round_.assign(n, 0);
  return net;
}

NodeId OverlayNetwork::add_node(bool honest, std::size_t declared_degree) {
  // Slot metadata first: graph_.add_node() notifies any attached
  // MutationObserver, and the scenario StructuralTracker classifies the
  // new node (honest vs Sybil) from inside that callback. The new id
  // equals the pre-push size of every slot-parallel vector.
  ONION_EXPECTS(declared_degree == kTruthful ||
                declared_degree < kTruthful32);
  honest_.push_back(honest ? 1 : 0);
  declared_.push_back(declared_degree == kTruthful
                          ? kTruthful32
                          : static_cast<std::uint32_t>(declared_degree));
  requests_seen_.push_back(0);
  accepted_this_round_.push_back(0);
  const NodeId id = graph_.add_node();
  ONION_ENSURES(honest_.size() == graph_.capacity());
  return id;
}

std::size_t OverlayNetwork::declared_degree(NodeId u) const {
  const std::uint32_t lie = declared_.at(u);
  if (lie == kTruthful32) return graph_.degree(u);
  return lie;
}

double OverlayNetwork::pow_cost_for(NodeId target) {
  if (config_.pow_base_cost <= 0.0) return 0.0;
  const double cost =
      config_.pow_base_cost *
      std::pow(config_.pow_growth,
               static_cast<double>(requests_seen_[target]));
  ++requests_seen_[target];
  return cost;
}

PeerDecision OverlayNetwork::request_peering(NodeId requester,
                                             NodeId target,
                                             NodeId* evicted) {
  ONION_EXPECTS(graph_.alive(requester) && graph_.alive(target));
  ONION_EXPECTS(requester != target);
  if (evicted != nullptr) *evicted = graph::kInvalidNode;

  // The proof-of-work puzzle is solved before the target even considers
  // the request; it is sunk cost for the requester.
  const double cost = pow_cost_for(target);
  (honest(requester) ? honest_work_ : sybil_work_) += cost;

  if (graph_.has_edge(requester, target)) return PeerDecision::Rejected;
  if (accepted_this_round_[target] >= config_.rate_limit_per_round)
    return PeerDecision::RateLimited;

  if (graph_.degree(target) < config_.dmax) {
    graph_.add_edge(requester, target);
    ++accepted_this_round_[target];
    return PeerDecision::AcceptedWithCapacity;
  }

  // Full: accept only if the newcomer undercuts the worst current peer
  // (by declared degree); that peer is evicted — Figure 7 step 4. No
  // peers rank at degree 0, which no requester undercuts.
  const auto worst = highest_degree_peer(
      graph_.neighbors(target), [&](NodeId p) { return declared_degree(p); },
      rng_);
  if (declared_degree(requester) >= worst.degree)
    return PeerDecision::Rejected;

  const NodeId victim = *worst.peer;  // removal reorders the list
  graph_.remove_edge(target, victim);
  graph_.add_edge(requester, target);
  ++accepted_this_round_[target];
  if (evicted != nullptr) *evicted = victim;
  return PeerDecision::AcceptedEvicted;
}

void OverlayNetwork::refill(NodeId v) {
  if (!graph_.alive(v) || !honest(v)) return;
  std::vector<NodeId> candidates;
  while (graph_.degree(v) < config_.dmin) {
    graph::non_candidates(graph_, v, non_mark_, candidates);
    if (candidates.empty()) return;
    const NodeId pick =
        candidates[static_cast<std::size_t>(rng_.uniform(candidates.size()))];
    // An honest node cannot tell a clone from a bot; it simply asks.
    const PeerDecision decision = request_peering(v, pick);
    if (decision == PeerDecision::Rejected ||
        decision == PeerDecision::RateLimited)
      return;  // give up this round; the next round may retry
  }
}

void OverlayNetwork::begin_round() {
  std::fill(accepted_this_round_.begin(), accepted_this_round_.end(), 0);
}

bool OverlayNetwork::contained(NodeId u) const {
  if (!graph_.alive(u)) return false;
  const auto& peers = graph_.neighbors(u);
  if (peers.empty()) return true;  // isolated: cut off from the botnet
  for (const NodeId p : peers)
    if (honest(p)) return false;
  return true;
}

std::size_t OverlayNetwork::honest_edges() const {
  std::size_t count = 0;
  for (NodeId u = 0; u < graph_.capacity(); ++u) {
    if (!graph_.alive(u) || !honest(u)) continue;
    for (const NodeId v : graph_.neighbors(u))
      if (honest(v) && u < v) ++count;
  }
  return count;
}

std::vector<std::uint32_t> OverlayNetwork::honest_component_labels() const {
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::vector<std::uint32_t> label(graph_.capacity(), kNone);
  std::uint32_t next = 0;
  std::vector<NodeId> stack;
  for (NodeId start = 0; start < graph_.capacity(); ++start) {
    if (!graph_.alive(start) || !honest(start) || label[start] != kNone)
      continue;
    const std::uint32_t comp = next++;
    label[start] = comp;
    stack.push_back(start);
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (const NodeId v : graph_.neighbors(u)) {
        if (!honest(v) || label[v] != kNone) continue;
        label[v] = comp;
        stack.push_back(v);
      }
    }
  }
  return label;
}

std::size_t OverlayNetwork::honest_components() const {
  // Labels are dense (0, 1, ...) in order of discovery, so the count is
  // one past the largest.
  std::size_t count = 0;
  for (const std::uint32_t l : honest_component_labels())
    if (l != ~std::uint32_t{0}) count = std::max<std::size_t>(count, l + 1);
  return count;
}

std::vector<NodeId> OverlayNetwork::honest_nodes() const {
  std::vector<NodeId> out;
  out.reserve(graph_.num_alive());
  for (NodeId u = 0; u < graph_.capacity(); ++u)
    if (graph_.alive(u) && honest(u)) out.push_back(u);
  return out;
}

}  // namespace onion::core

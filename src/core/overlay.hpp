// Bot-level overlay model: the DDSR graph as bots actually experience it,
// where a peer's degree is whatever that peer *declares*. Honest bots
// declare truthfully; Sybil clones lie (paper Figure 7 step 3: clones
// "declare their degree to be a small random number ... to increase the
// chances of being accepted"). This unauthenticated declaration is the
// exact weakness SOAP exploits, and the proof-of-work / rate-limiting
// defenses of Section VII-A are modeled here so the mitigation and
// defense benches share one substrate.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace onion::core {

/// Overlay peering parameters.
struct OverlayConfig {
  /// Degree band honest nodes maintain.
  std::size_t dmin = 10;
  std::size_t dmax = 10;

  /// Max peering requests a node accepts per round (rate-limiting
  /// defense; unlimited by default).
  std::size_t rate_limit_per_round =
      std::numeric_limits<std::size_t>::max();

  /// Proof-of-work defense: cost of the n-th peering request received by
  /// a node is pow_base_cost * pow_growth^n (0 disables). "As more nodes
  /// request peering with a node, the complexity of the task is
  /// increased to give preference to the older nodes" (§VII-A).
  double pow_base_cost = 0.0;
  double pow_growth = 2.0;
};

/// Outcome of a peering request.
enum class PeerDecision {
  AcceptedWithCapacity,  // target was below dmax
  AcceptedEvicted,       // target evicted its highest-declared peer
  Rejected,              // requester's declared degree not low enough
  RateLimited,           // target's per-round acceptance budget exhausted
};

/// The overlay network of honest bots and (possibly) Sybil clones.
class OverlayNetwork {
 public:
  using NodeId = graph::NodeId;
  static constexpr std::size_t kTruthful =
      std::numeric_limits<std::size_t>::max();

  OverlayNetwork(OverlayConfig config, Rng& rng)
      : config_(config), rng_(rng) {}

  /// Builds an overlay of `n` honest bots wired as a random k-regular
  /// graph (the paper's starting topology). The generated graph is moved
  /// in, not copied. Adjacency-order contract: neighbors(u) lists u's
  /// lower-id neighbours ascending, then its higher-id neighbours in
  /// graph::random_regular's order — exactly what copying that graph
  /// edge by edge (u ascending, add_edge(u, v) for each v > u) yields.
  /// Refill, eviction tie-breaks and DDSR repair walk these lists, so
  /// the order is as much a part of every seeded run as the edge set.
  static OverlayNetwork random_regular(std::size_t n, std::size_t k,
                                       OverlayConfig config, Rng& rng);

  /// Adds a node. `declared_degree` == kTruthful means the node reports
  /// its true degree (honest); any other value is a fixed lie (Sybil).
  NodeId add_node(bool honest, std::size_t declared_degree = kTruthful);

  /// Requester asks target to peer. Implements the acceptance policy the
  /// paper's Figure 7 walks through: room -> accept; full -> accept iff
  /// the requester's declared degree undercuts the highest-declared
  /// current peer, which gets evicted. Proof-of-work cost (if enabled) is
  /// charged to the requester's ledger whether or not it is accepted.
  PeerDecision request_peering(NodeId requester, NodeId target) {
    return request_peering(requester, target, nullptr);
  }

  /// As above, but reports who got evicted (kInvalidNode when nobody
  /// was). The scenario engine uses this to queue the victim's refill —
  /// an eviction otherwise leaves a silent hole below dmin.
  PeerDecision request_peering(NodeId requester, NodeId target,
                               NodeId* evicted);

  /// Drops the edge; both sides forget each other (paper "Forgetting").
  void drop_edge(NodeId a, NodeId b) { graph_.remove_edge(a, b); }

  /// Honest-node maintenance after losing edges: refill from NoN up to
  /// dmin. Honest refill also pays proof-of-work — the recoverability
  /// cost of the defense that the paper calls an open trade-off.
  void refill(NodeId v);

  /// Starts a new round: resets per-round rate-limit counters.
  void begin_round();

  /// --- introspection ------------------------------------------------
  const graph::Graph& graph() const { return graph_; }
  const OverlayConfig& config() const { return config_; }

  /// Scenario-engine hook: mutable access to the topology so DDSR
  /// maintenance (core/ddsr.hpp) can run churn repair directly on the
  /// overlay's graph. Slot-parallel metadata (honesty, declared degree,
  /// rate-limit ledgers) is keyed by stable NodeId, so edge and node
  /// removals through this reference keep the overlay consistent; new
  /// nodes must still come through add_node().
  graph::Graph& graph_mut() { return graph_; }
  bool honest(NodeId u) const { return honest_.at(u) != 0; }
  std::size_t declared_degree(NodeId u) const;
  const std::vector<NodeId>& neighbors(NodeId u) const {
    return graph_.neighbors(u);
  }
  bool alive(NodeId u) const { return graph_.alive(u); }

  /// True iff every peer of `u` is a Sybil — `u` is contained.
  bool contained(NodeId u) const;

  /// Number of honest-honest edges remaining (0 = fully neutralized).
  std::size_t honest_edges() const;

  /// Connected components among honest nodes only.
  std::size_t honest_components() const;

  /// Component label per node slot, computed over honest-honest edges
  /// only (Sybils do not relay — the paper's legal-liability assumption).
  /// Dead and Sybil slots get ~0u. Used by SuperOnion probes.
  std::vector<std::uint32_t> honest_component_labels() const;

  /// Abandons a node: it stops answering and all its edges vanish
  /// (a SuperOnion host retiring a soaped virtual identity).
  void retire(NodeId u) { graph_.remove_node(u); }

  /// Proof-of-work spent so far, split by who paid it.
  double sybil_work_spent() const { return sybil_work_; }
  double honest_work_spent() const { return honest_work_; }

  /// All honest alive node ids.
  std::vector<NodeId> honest_nodes() const;

 private:
  double pow_cost_for(NodeId target);

  /// Internal truthful sentinel. Per-bot metadata is struct-of-arrays
  /// with 32-bit slots (a declared-degree lie is a small number, PoW
  /// request counts and per-round acceptances never approach 2^32), so
  /// a million-bot overlay pays 13 bytes of metadata per slot instead
  /// of 25. kTruthful stays size_t at the API boundary.
  static constexpr std::uint32_t kTruthful32 = ~std::uint32_t{0};

  OverlayConfig config_;
  Rng& rng_;
  graph::Graph graph_{0};
  std::vector<std::uint8_t> honest_;
  std::vector<std::uint32_t> declared_;       // kTruthful32 or the lie
  std::vector<std::uint32_t> requests_seen_;  // PoW difficulty escalator
  std::vector<std::uint32_t> accepted_this_round_;
  double sybil_work_ = 0.0;
  double honest_work_ = 0.0;
  /// Scratch for refill's NoN candidate pass (graph::non_candidates),
  /// all-zero between calls; sized on the first refill.
  std::vector<std::uint8_t> non_mark_;
};

}  // namespace onion::core

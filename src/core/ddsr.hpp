// The Dynamic Distributed Self-Repairing (DDSR) graph — the paper's core
// overlay construction (Section IV-C). Built on Neighbors-of-Neighbor
// (NoN) knowledge: every node knows its neighbors' neighbors, so when a
// node dies its former neighbors can stitch the hole closed without any
// global view.
//
//   Repairing:  when u is deleted, each pair of u's former neighbors
//               (uj, uk) forms an edge iff it does not already exist.
//   Pruning:    a node above dmax drops its highest-degree neighbor
//               (ties random) until back in range — keeping degree, and
//               therefore exposure, low.
//   Refilling:  a node below dmin acquires replacements from its NoN set
//               (never globally: bots only know two hops out).
//
// This graph-level engine drives the Figure 4/5/6 sweeps; the full
// bot-over-Tor stack (core/botnet.hpp) executes the same repair and prune
// policies, ties included, through real peer messages; only its refill
// order differs (shuffled NoN candidates, no preference for spare room).
#pragma once

#include <cstdint>
#include <functional>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace onion::core {

/// Repair-policy knobs; defaults follow the paper. Alternatives exist for
/// the ablation bench (bench/ablation_ddsr.cpp).
struct DdsrPolicy {
  /// Degree band [dmin, dmax] the maintenance keeps nodes inside.
  std::size_t dmin = 5;
  std::size_t dmax = 5;

  /// Pruning on/off — the Figure 4 with/without-pruning comparison.
  bool prune = true;

  /// NoN refill of nodes that fell below dmin.
  bool refill = true;

  /// Which neighbor a pruning node evicts.
  enum class Victim {
    HighestDegree,  // the paper's rule: preserves reachability
    Random,         // ablation
  };
  Victim victim = Victim::HighestDegree;

  /// How a dead node's former neighbors reconnect.
  enum class Repair {
    PairwiseFull,  // the paper's rule: clique over former neighbors
    RandomMatch,   // ablation: shuffled pairing, half the edges
  };
  Repair repair = Repair::PairwiseFull;
};

/// Counters describing maintenance work done so far.
struct DdsrStats {
  std::uint64_t nodes_removed = 0;
  std::uint64_t repair_edges_added = 0;
  std::uint64_t prune_edges_removed = 0;
  std::uint64_t refill_edges_added = 0;
  /// Repair/refill requests a connector (below) refused — nonzero only
  /// under defense-consistent healing, where PoW/rate limits can turn
  /// an edge the graph-level protocol would have created into a denial.
  std::uint64_t heal_requests_denied = 0;

  /// Peer messages implied by the counters: each repair, prune, or
  /// refill edge operation is one request/acknowledge exchange in the
  /// bot-level protocol (core/botnet.hpp). Campaign snapshots report
  /// this as the overlay's self-healing traffic cost.
  std::uint64_t maintenance_messages() const {
    return repair_edges_added + prune_edges_removed + refill_edges_added;
  }
};

/// Applies DDSR maintenance to a Graph as nodes are removed. The engine
/// borrows the graph; the caller keeps ownership and may inspect it
/// between operations.
class DdsrEngine {
 public:
  DdsrEngine(graph::Graph& g, DdsrPolicy policy, Rng& rng)
      : graph_(g), policy_(policy), rng_(rng) {}

  /// Removes `u` and runs repair/prune/refill on its former neighborhood
  /// (the gradual-takedown model: one deletion, then the network heals).
  void remove_node(graph::NodeId u);

  /// Removes `u` with no healing (the "Normal" baseline of Figure 5, and
  /// the simultaneous-takedown model of Figure 6).
  void remove_node_no_repair(graph::NodeId u);

  /// How repair and refill edges come into being. Default (none):
  /// direct graph mutation — NoN peers are pre-acquainted, so healing
  /// is free. A connector interposes a peering policy: it is handed the
  /// two endpoints, returns whether the edge now exists, and owns any
  /// side effects (PoW charges, rate-limit denials, evictions). The
  /// scenario engine wires this to OverlayNetwork::request_peering for
  /// defense-consistent ablations. Pruning stays direct either way —
  /// dropping a peer ("Forgetting") is not a request anyone can refuse.
  using Connector = std::function<bool(graph::NodeId, graph::NodeId)>;
  void set_connector(Connector connect) { connect_ = std::move(connect); }

  const DdsrStats& stats() const { return stats_; }
  const DdsrPolicy& policy() const { return policy_; }

 private:
  void prune_node(graph::NodeId v, std::vector<graph::NodeId>& lost_edge);
  void refill_node(graph::NodeId v);
  void repair_clique(const std::vector<graph::NodeId>& former);
  /// Adds the edge directly or through the connector; updates `counter`
  /// on success, heal_requests_denied on refusal.
  bool connect_edge(graph::NodeId a, graph::NodeId b,
                    std::uint64_t& counter);

  graph::Graph& graph_;
  DdsrPolicy policy_;
  Rng& rng_;
  DdsrStats stats_;
  Connector connect_;  // empty = direct graph mutation
  /// Scratch bitmap, all-zero between uses, kept across calls: the
  /// adjacency marks of repair_clique (the unpruned Figure-4 runs, with
  /// degrees in the thousands, pay O(1) per membership test instead of
  /// an O(deg) scan) and the NoN marks of refill_node's candidate pass
  /// (graph::non_candidates).
  std::vector<std::uint8_t> adjacent_;
};

}  // namespace onion::core

// Fully-dynamic connectivity over a subset of a graph's node slots:
// component count, every component's size, and the largest component are
// maintained exactly under arbitrary interleavings of vertex/edge
// insertions AND deletions — no global rebuild, ever.
//
// The algorithm is a spanning-structure-free variant of the replacement-
// edge search at the heart of Holm–de Lichtenberg–Thorup: every vertex
// carries a component label, merges relabel the smaller side (weighted
// union, so each vertex is relabeled O(log n) times across a growth
// phase), and an edge deletion runs a *bidirectional* breadth-first
// search from both endpoints over the live adjacency. If the frontiers
// meet, a replacement path exists and nothing changes; if one side
// exhausts first, exactly that side — which is the smaller reachable
// set, to within one alternation step — becomes a new component and is
// relabeled. The deletion cost is therefore O(meeting distance) when
// the edge is cycle-covered (the overwhelmingly common case in a
// degree-banded DDSR overlay, where clique repair keeps alternate paths
// two hops long) and O(smaller split side) when it is a bridge — the
// output-sensitive optimum, since the smaller side must be relabeled
// anyway. This is not the HDT polylog *worst case* (an adversarial
// bridge chain costs O(n) per cut; tests/dynconn_test.cpp drives
// exactly that sequence), but it is differential-tested against
// from-scratch union-find sweeps over randomized add/delete
// interleavings, which is the contract the scenario tracker needs.
//
// The structure is a view over the graph it tracks: it keeps no
// adjacency of its own, and the replacement search walks
// Graph::neighbors, skipping untracked slots. The caller therefore
// reports every mutation right after the graph applies it — exactly the
// order graph::MutationObserver guarantees. Slot tables are struct-of-
// arrays (labels, circular member rosters, visit stamps) and grow with
// the graph. Attaching to an existing graph goes through load(): the
// caller's component labelling becomes the rosters directly, so no
// merge runs at attach time. Determinism: no randomness, no unordered-
// container iteration — the search visits neighbours in adjacency order,
// component sizes live in an ordered std::map — so every derived
// quantity is a pure function of the operation sequence, and component
// counts do not depend on neighbour order at all.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/check.hpp"
#include "graph/graph.hpp"

namespace onion::graph {

/// Deletion-tolerant incremental connectivity over tracked vertices.
/// Vertices are node slots of one graph::Graph; the caller chooses
/// which slots participate (the scenario tracker feeds honest alive
/// bots only) and reports every mutation among them, in order, right
/// after the graph applies it.
class DynamicConnectivity {
 public:
  /// Views `g`, which must outlive this structure.
  explicit DynamicConnectivity(const Graph& g) : g_(g) { reset(); }

  /// Re-initializes to g.capacity() empty (untracked) slots. Reuses
  /// every internal buffer — a resync never allocates once the structure
  /// has been warmed to its high-water capacity.
  void reset();

  /// Bulk attach: re-initializes and tracks every slot u with
  /// labels[u] != kUntracked, in component labels[u]. The labels must be
  /// the connected components of the subgraph of `g` induced by the
  /// tracked slots, numbered 0..C-1 (one labelling pass, e.g.
  /// core::OverlayNetwork::honest_component_labels()). No merge runs:
  /// O(n + m) with one size-map update per component, and merges()
  /// stays 0.
  static constexpr std::uint32_t kUntracked = ~std::uint32_t{0};
  void load(const std::vector<std::uint32_t>& labels);

  /// Starts tracking slot `u` as a fresh singleton component; the slot
  /// tables grow to g.capacity() first if needed. Precondition: u alive
  /// in g and not tracked.
  void insert_vertex(NodeId u);

  /// Stops tracking `u`. Precondition: tracked and a singleton component
  /// (callers remove incident edges first — exactly the order in which
  /// graph::Graph::remove_node notifies an observer).
  void remove_vertex(NodeId u);

  /// Reports edge {u,v}, already added to g, between tracked vertices;
  /// merges their components if distinct (smaller side relabeled).
  /// Precondition: both tracked, u != v.
  void insert_edge(NodeId u, NodeId v);

  /// Reports edge {u,v}, already removed from g; splits the component if
  /// {u,v} was a bridge (the smaller reachable side is relabeled).
  /// Precondition: both tracked, in the same component, and g no longer
  /// holds the edge.
  void remove_edge(NodeId u, NodeId v);

  /// --- queries (all O(1) except same_component's two loads) ----------
  bool tracked(NodeId u) const {
    return u < label_.size() && label_[u] != kNil;
  }
  std::uint64_t num_vertices() const { return num_vertices_; }
  /// Edges of g between two tracked vertices.
  std::uint64_t num_edges() const { return num_edges_; }
  std::uint64_t components() const { return components_; }
  /// Size of the largest component (0 when no vertex is tracked).
  std::uint64_t largest_component() const {
    return size_counts_.empty() ? 0 : size_counts_.rbegin()->first;
  }
  std::uint64_t component_size(NodeId u) const {
    ONION_EXPECTS(tracked(u));
    return comp_size_[label_[u]];
  }
  bool same_component(NodeId u, NodeId v) const {
    ONION_EXPECTS(tracked(u) && tracked(v));
    return label_[u] == label_[v];
  }

  /// --- introspection (tests and benches) -----------------------------
  /// Component merges performed by insert_edge.
  std::uint64_t merges() const { return merges_; }
  /// Bridge deletions that split a component.
  std::uint64_t splits() const { return splits_; }
  /// Total vertices expanded by replacement-path searches — the real
  /// cost of all remove_edge calls so far (tests bound this; the bench
  /// reports it per deletion window).
  std::uint64_t search_steps() const { return search_steps_; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// Grows the slot tables to g.capacity() (new slots untracked).
  void grow();
  std::uint32_t alloc_component();
  void free_component(std::uint32_t c);
  void add_size(std::uint32_t s);
  void drop_size(std::uint32_t s);
  /// Relabels `members` (the exhausted BFS side) into a fresh component
  /// split off from `old_comp`.
  void split_component(const std::vector<NodeId>& members,
                       std::uint32_t old_comp);
  /// One BFS expansion step over the tracked neighbours of the next
  /// queued vertex; returns true when the other side was hit.
  bool expand(std::vector<NodeId>& queue, std::size_t& head,
              std::uint8_t side);

  const Graph& g_;  // valid: Graph refuses to move while observed

  // Slot tables (struct-of-arrays; index = NodeId).
  std::vector<std::uint32_t> label_;        // component id, kNil = untracked
  std::vector<std::uint32_t> member_next_;  // circular component roster
  std::vector<std::uint32_t> member_prev_;
  std::vector<std::uint32_t> visit_mark_;   // BFS epoch stamp
  std::vector<std::uint8_t> visit_side_;    // which frontier claimed it

  // Component records (index = component id, free-listed).
  std::vector<std::uint32_t> comp_size_;
  std::vector<std::uint32_t> comp_head_;  // any member, kNil when free
  std::vector<std::uint32_t> comp_free_;

  /// size -> number of components of that size. Ordered map: largest()
  /// is rbegin, and iteration (none today) would be deterministic.
  std::map<std::uint32_t, std::uint32_t> size_counts_;

  std::uint64_t num_vertices_ = 0;
  std::uint64_t num_edges_ = 0;
  std::uint64_t components_ = 0;
  std::uint64_t merges_ = 0;
  std::uint64_t splits_ = 0;
  std::uint64_t search_steps_ = 0;
  std::uint32_t epoch_ = 0;

  // Replacement-search scratch, reused across remove_edge calls.
  std::vector<NodeId> queue_a_;
  std::vector<NodeId> queue_b_;
};

}  // namespace onion::graph

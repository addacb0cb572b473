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
// Memory layout is struct-of-arrays over node slots with a pooled
// half-edge adjacency (one flat pool, free-list reuse, no per-vertex
// heap blocks), so a 500k–1M node overlay costs a handful of flat
// vectors instead of a million tiny allocations. Attaching to an
// existing graph goes through load(): the caller's component labelling
// becomes the rosters directly and the edges are laid into the pool in
// the sequential-insert order, so no merge runs at attach time and the
// structure that results is search-for-search identical to inserting
// one edge at a time. Determinism: no
// randomness, no unordered-container iteration — adjacency iterates in
// pool order, component sizes live in an ordered std::map — so every
// derived quantity is a pure function of the operation sequence.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/check.hpp"
#include "graph/graph.hpp"

namespace onion::graph {

/// Deletion-tolerant incremental connectivity over tracked vertices.
/// Vertices are node-slot indices (graph::NodeId); the caller chooses
/// which slots participate (the scenario tracker feeds honest alive
/// bots only) and mirrors every mutation in, in order.
class DynamicConnectivity {
 public:
  explicit DynamicConnectivity(std::size_t capacity = 0) {
    reset(capacity);
  }

  /// Re-initializes to `capacity` empty (untracked) slots. Reuses every
  /// internal buffer — a resync never allocates once the structure has
  /// been warmed to its high-water capacity.
  void reset(std::size_t capacity);

  /// Grows the slot table (new slots untracked). No-op if already big
  /// enough; never shrinks.
  void ensure_capacity(std::size_t capacity);

  /// Bulk attach: re-initializes to g.capacity() slots and tracks every
  /// slot u with labels[u] != kUntracked, in component labels[u]. The
  /// labels must be the connected components of the subgraph of `g`
  /// induced by the tracked slots, numbered 0..C-1 (one labelling pass,
  /// e.g. core::OverlayNetwork::honest_component_labels()). Edges enter
  /// the half-edge pool in the order "u ascending, v in g.neighbors(u)
  /// with v > u and v tracked" — the exact layout that insert_vertex on
  /// every tracked slot followed by insert_edge in that order leaves, so
  /// later replacement searches visit nodes in the same order — but no
  /// merge runs: O(n + m) with one size-map update per component, and
  /// merges() stays 0.
  static constexpr std::uint32_t kUntracked = ~std::uint32_t{0};
  void load(const Graph& g, const std::vector<std::uint32_t>& labels);

  /// Starts tracking slot `u` as a fresh singleton component.
  /// Precondition: u < capacity() and not tracked.
  void insert_vertex(NodeId u);

  /// Stops tracking `u`. Precondition: tracked and isolated (callers
  /// remove incident edges first — exactly the order in which
  /// graph::Graph::remove_node notifies an observer).
  void remove_vertex(NodeId u);

  /// Adds edge {u,v} between tracked vertices; merges their components
  /// if distinct (smaller side relabeled). Precondition: both tracked,
  /// u != v, edge not present.
  void insert_edge(NodeId u, NodeId v);

  /// Removes edge {u,v}; splits the component if {u,v} was a bridge
  /// (the smaller reachable side is relabeled). Precondition: the edge
  /// was inserted and not yet removed.
  void remove_edge(NodeId u, NodeId v);

  /// --- queries (all O(1) except same_component's two loads) ----------
  std::size_t capacity() const { return label_.size(); }
  bool tracked(NodeId u) const {
    return u < label_.size() && label_[u] != kNil;
  }
  /// Tracked-edge degree of a tracked vertex.
  std::size_t degree(NodeId u) const {
    ONION_EXPECTS(tracked(u));
    return degree_[u];
  }
  std::uint64_t num_vertices() const { return num_vertices_; }
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

  /// Pushes the twin half-edges of {u,v} onto both adjacency lists
  /// (pool slot from the free list, else appended) and bumps degrees.
  void link_edge(NodeId u, NodeId v);
  std::uint32_t alloc_component();
  void free_component(std::uint32_t c);
  void add_size(std::uint32_t s);
  void drop_size(std::uint32_t s);
  /// Detaches the u->v half-edge from u's list; returns its pool index.
  std::uint32_t detach_half(NodeId u, NodeId v);
  /// Relabels `members` (the exhausted BFS side) into a fresh component
  /// split off from `old_comp`.
  void split_component(const std::vector<NodeId>& members,
                       std::uint32_t old_comp);
  /// One BFS expansion step; returns true when the other side was hit.
  bool expand(std::vector<NodeId>& queue, std::size_t& head,
              std::uint8_t side);

  // Slot tables (struct-of-arrays; index = NodeId).
  std::vector<std::uint32_t> label_;        // component id, kNil = untracked
  std::vector<std::uint32_t> degree_;       // tracked-edge degree
  std::vector<std::uint32_t> head_half_;    // first half-edge, kNil = none
  std::vector<std::uint32_t> member_next_;  // circular component roster
  std::vector<std::uint32_t> member_prev_;
  std::vector<std::uint32_t> visit_mark_;   // BFS epoch stamp
  std::vector<std::uint8_t> visit_side_;    // which frontier claimed it

  // Pooled half-edge adjacency: half-edges 2e and 2e+1 are twins
  // (twin(h) == h ^ 1); deleted pairs go on a free list for reuse.
  std::vector<std::uint32_t> half_to_;
  std::vector<std::uint32_t> half_next_;
  std::vector<std::uint32_t> free_pairs_;

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

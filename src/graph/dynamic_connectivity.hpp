// Fully-dynamic connectivity over a subset of a graph's node slots:
// component count, every component's size, and the largest component are
// maintained exactly under arbitrary interleavings of vertex/edge
// insertions AND deletions — no global rebuild, ever.
//
// Every vertex carries a component label. Insertions merge by weighted
// union: the smaller side is relabeled, so each vertex is relabeled
// O(log n) times across a growth phase. Deletions are settled by a
// replacement-path search over the live adjacency with one breadth-first
// frontier per seed endpoint. Frontiers take turns expanding one vertex
// each; two that meet unite (the smaller's queue moves into the larger's),
// and a class of united frontiers that runs out of vertices to expand is
// a whole component and splits off with a fresh label. The search stops
// when one class is left, and that class keeps the old label. Its cost is
// O(meeting distance) when the deleted edges are cycle-covered (the
// common case in a degree-banded DDSR overlay, where clique repair keeps
// alternate paths two hops long) and O(split-off sides) when they are
// bridges — output-sensitive, since those sides must be relabeled anyway.
// This is not the HDT polylog worst case: an adversarial bridge chain
// costs O(n) per cut (tests/dynconn_test.cpp drives exactly that).
//
// Deletions are settled when someone reads components, not when they
// happen. remove_edge only queues its two endpoints, and remove_vertex
// unlinks the vertex from its component roster whatever the component's
// size. Insertions merge as always. Labels can therefore only be too
// coarse: each true component lies inside one label. settle() drops
// queued endpoints that are no longer tracked and duplicates, groups the
// rest by label, and runs one search per group of two or more. Every
// true piece of a label that lost an edge holds a queued endpoint, so one
// search per group is exact. The component queries refuse to answer while
// deletions are pending, so a reader calls settle() first; the scenario
// tracker does so once per snapshot. Settling after every removal is the
// reference that settles each lost edge with two frontiers
// (tests/dynconn_test.cpp and tests/tracker_test.cpp compare the two on
// every partition). Their counters differ: a later settle never splits
// off a vertex that has since left, nor splits and then re-merges a piece
// that later insertions reconnect.
//
// The structure is a view over the graph it tracks: it keeps no
// adjacency of its own, and the search walks Graph::neighbors, skipping
// untracked slots. The caller therefore reports every mutation right
// after the graph applies it — exactly the order graph::MutationObserver
// guarantees. Slot tables are struct-of-arrays (labels, circular member
// rosters, visit marks) and grow with the graph. A search reserves one
// visit-mark value per frontier, so the mark says both "reached in this
// search" and by which frontier. Attaching to an existing graph goes
// through load(): the caller's component labelling becomes the rosters
// directly, so no merge runs at attach time. Determinism: no randomness,
// no unordered-container iteration — searches visit neighbours in
// adjacency order and seeds in (label, id) order, component sizes live
// in an ordered std::map — so every derived quantity is a pure function
// of the operation sequence, and component counts do not depend on
// neighbour order at all.
#pragma once

#include <cstdint>
#include <map>
#include <span>
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

  /// Stops tracking `u`, already removed from g. Precondition: tracked.
  /// Callers report u's lost edges first (exactly the order in which
  /// graph::Graph::remove_node notifies an observer); they are queued,
  /// and settle() splits what u's departure disconnected.
  void remove_vertex(NodeId u);

  /// Reports edge {u,v}, already added to g, between tracked vertices;
  /// merges their components if distinct (smaller side relabeled).
  /// Precondition: both tracked, u != v.
  void insert_edge(NodeId u, NodeId v);

  /// Reports edge {u,v}, already removed from g, and queues both
  /// endpoints for settle(). Precondition: both tracked, in the same
  /// (possibly too coarse) component, and g no longer holds the edge.
  void remove_edge(NodeId u, NodeId v);

  /// Settles every deletion queued since the last settle with one
  /// multi-frontier search per affected component: a component that
  /// lost its last path between two queued endpoints splits, and each
  /// exhausted side is relabeled. O(1) when nothing is queued.
  void settle();

  /// --- queries (all O(1) except same_component's two loads) ----------
  /// Component-level answers are refused while deletions are pending,
  /// where labels may be too coarse; vertex and edge counts are always
  /// exact.
  bool tracked(NodeId u) const {
    return u < label_.size() && label_[u] != kNil;
  }
  std::uint64_t num_vertices() const { return num_vertices_; }
  /// Edges of g between two tracked vertices.
  std::uint64_t num_edges() const { return num_edges_; }
  std::uint64_t components() const {
    ONION_EXPECTS(queued_.empty());
    return components_;
  }
  /// Size of the largest component (0 when no vertex is tracked).
  std::uint64_t largest_component() const {
    ONION_EXPECTS(queued_.empty());
    return size_counts_.empty() ? 0 : size_counts_.rbegin()->first;
  }
  std::uint64_t component_size(NodeId u) const {
    ONION_EXPECTS(queued_.empty() && tracked(u));
    return comp_size_[label_[u]];
  }
  bool same_component(NodeId u, NodeId v) const {
    ONION_EXPECTS(queued_.empty() && tracked(u) && tracked(v));
    return label_[u] == label_[v];
  }

  /// --- introspection (tests and benches) -----------------------------
  /// Component merges performed by insert_edge.
  std::uint64_t merges() const { return merges_; }
  /// Components split off by searches. A vertex that left before the
  /// settle is not a split.
  std::uint64_t splits() const { return splits_; }
  /// Total vertices expanded by replacement-path searches — the real
  /// cost of all settled deletions so far (tests bound this; the bench
  /// reports it per deletion). Deletions still queued cost nothing yet.
  std::uint64_t search_steps() const { return search_steps_; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// Grows the slot tables to g.capacity() (new slots untracked).
  void grow();
  std::uint32_t alloc_component();
  void free_component(std::uint32_t c);
  void add_size(std::uint32_t s);
  void drop_size(std::uint32_t s);
  /// Relabels the `moved` vertices on the reach_ list starting at `first`
  /// (an exhausted search class) into a fresh component split off from
  /// `old_comp`.
  void split_component(std::uint32_t first, std::uint32_t moved,
                       std::uint32_t old_comp);
  /// Reserves `k` consecutive visit-mark values and returns the first.
  std::uint32_t reserve_marks(std::uint32_t k);
  /// Multi-frontier search from `seeds` (distinct, all in one component):
  /// splits off every class of met frontiers that runs out.
  void search(std::span<const NodeId> seeds);

  /// A list of reach_ entries, linked through Reach::next.
  struct List {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  /// One vertex reached by a search.
  struct Reach {
    NodeId v;
    std::uint32_t next;
  };
  /// One search frontier, or a class of united ones: union-find over the
  /// frontier indices, live classes in a circular turn order, and the
  /// class's reached vertices as two reach_ lists.
  struct Frontier {
    std::uint32_t parent = 0;
    std::uint32_t next = 0;  // turn order
    std::uint32_t prev = 0;
    std::uint32_t size = 0;  // reached vertices
    List expanded;
    List queued;
  };
  void push_back(List& list, std::uint32_t entry);
  std::uint32_t find_frontier(std::uint32_t f);
  /// Unites two live classes in O(1) (the larger by size stays the root,
  /// the other's lists are spliced onto its own) and drops the absorbed
  /// one from the turn order; returns the surviving class.
  std::uint32_t unite_frontiers(std::uint32_t a, std::uint32_t b);
  /// Drops class f from the turn order; returns the class after it.
  std::uint32_t unlink_frontier(std::uint32_t f);

  const Graph& g_;  // valid: Graph refuses to move while observed

  // Slot tables (struct-of-arrays; index = NodeId).
  std::vector<std::uint32_t> label_;        // component id, kNil = untracked
  std::vector<std::uint32_t> member_next_;  // circular component roster
  std::vector<std::uint32_t> member_prev_;
  std::vector<std::uint32_t> visit_mark_;   // epoch + frontier that reached it

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
  std::uint32_t epoch_ = 0;  // last visit-mark value handed out

  // Endpoints of edges removed since the last settle(), reserved by
  // reset() for kScratchReach (the pinned 500k campaign queues up to
  // 1,540 between snapshots).
  std::vector<NodeId> queued_;
  // Search scratch, reused across searches, reserved by reset() for up to
  // kScratchSeeds seeds and kScratchReach reached vertices per settle (the
  // pinned 500k campaign peaks at 278 and 13,275; seed 0x1d0c at 1,036
  // and 25,507, which grow the scratch once).
  static constexpr std::size_t kScratchSeeds = 512;
  static constexpr std::size_t kScratchReach = 16384;
  std::vector<Frontier> frontiers_;
  std::vector<Reach> reach_;
};

}  // namespace onion::graph

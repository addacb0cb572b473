// Undirected graph with stable node identifiers and node deletion — the
// substrate for every overlay experiment in the paper's Section V. Node
// slots are never reused: deleting node 7 leaves a tombstone, so
// "nodes deleted" sweeps (Figures 4–6) can index metrics by original ID.
//
// Representation: adjacency lists as unsorted vectors. Overlay degrees in
// the paper are tiny (5–15 and pruned back down), so O(deg) membership
// scans beat any set structure in both time and memory.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace onion::graph {

/// Node identifier: a stable index into the graph's slot table.
using NodeId = std::uint32_t;

/// Sentinel for "no node".
constexpr NodeId kInvalidNode = ~NodeId{0};

/// Observer of graph mutations. Every callback fires *after* the mutation
/// has been applied, so liveness, degrees, and adjacency reflect the new
/// state. remove_node() is decomposed into one on_edge_removed per
/// incident edge followed by on_node_removed (the node is degree-0 by
/// then), so an observer only ever has to understand four primitives.
/// An observer may defer work until it is read (DynamicConnectivity
/// queues deletions until someone asks for components). Observers must
/// not mutate the graph from inside a callback.
class MutationObserver {
 public:
  virtual ~MutationObserver() = default;
  virtual void on_node_added(NodeId u) = 0;
  virtual void on_node_removed(NodeId u) = 0;
  virtual void on_edge_added(NodeId u, NodeId v) = 0;
  virtual void on_edge_removed(NodeId u, NodeId v) = 0;
};

/// Mutable undirected simple graph (no self-loops, no parallel edges).
class Graph {
 public:
  /// Creates `n` alive, isolated nodes with IDs 0..n-1.
  explicit Graph(std::size_t n = 0);

  /// Copies carry the topology but never the observer: a copy is a new
  /// graph nobody has attached to yet (incremental trackers hold per-
  /// instance state that would be nonsense against the copy). Moves
  /// require both sides unobserved — an attached observer references
  /// this exact instance, so transferring it would dangle.
  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&& other);
  Graph& operator=(Graph&& other);

  /// Appends a fresh alive node and returns its ID (used by SOAP clone
  /// injection and SuperOnion virtual-node resurrection).
  NodeId add_node();

  /// Pre-sizes every existing adjacency list for `degree` neighbours
  /// (capacity hint only), so a builder that knows the final degree pays
  /// one allocation per list instead of push_back doubling.
  void reserve_degree(std::size_t degree) {
    for (auto& list : adjacency_) list.reserve(degree);
  }

  /// Reorders every adjacency list in place to: lower-id neighbours
  /// ascending, then higher-id neighbours in their current relative
  /// order. That is the order an edge-by-edge copy of this graph
  /// ("for u ascending, add_edge(u, v) for each listed v > u") produces,
  /// without building the copy.
  void order_lower_neighbors_first();

  /// Number of node slots ever created (alive + deleted).
  std::size_t capacity() const { return adjacency_.size(); }

  /// Number of alive nodes.
  std::size_t num_alive() const { return num_alive_; }

  /// Number of edges between alive nodes.
  std::size_t num_edges() const { return num_edges_; }

  bool alive(NodeId u) const {
    return u < alive_.size() && alive_[u] != 0;
  }

  /// Degree of an alive node.
  std::size_t degree(NodeId u) const {
    ONION_EXPECTS(alive(u));
    return adjacency_[u].size();
  }

  /// Adjacency list of an alive node. The order is deterministic and
  /// every seeded run depends on it: add_edge appends, and remove_edge
  /// and remove_node swap-erase (the list's last entry takes the removed
  /// one's place). Refill, eviction tie-breaks and DDSR repair walk
  /// these lists in this order.
  const std::vector<NodeId>& neighbors(NodeId u) const {
    ONION_EXPECTS(alive(u));
    return adjacency_[u];
  }

  /// True iff the edge {u,v} exists. Preconditions: both alive.
  bool has_edge(NodeId u, NodeId v) const;

  /// Adds {u,v}; returns false (and changes nothing) if the edge exists or
  /// u == v. Preconditions: both alive.
  bool add_edge(NodeId u, NodeId v);

  /// Adds {u,v} without the O(deg) duplicate scan. Preconditions: both
  /// alive, u != v, and the edge is known absent (callers such as the
  /// DDSR clique repair track membership externally; a duplicate here
  /// would corrupt the edge counter and every degree-based metric).
  void add_edge_unchecked(NodeId u, NodeId v);

  /// Removes {u,v}; returns false if absent. Preconditions: both alive.
  bool remove_edge(NodeId u, NodeId v);

  /// Deletes a node: detaches all incident edges and tombstones the slot.
  /// Precondition: alive(u).
  void remove_node(NodeId u);

  /// IDs of all alive nodes, ascending.
  std::vector<NodeId> alive_nodes() const;

  /// Sum of degrees / number of alive nodes (0 if empty).
  double average_degree() const;

  /// --- mutation-observer / epoch hook --------------------------------
  /// At most one observer at a time; pass nullptr to detach. Attaching
  /// over a live observer is a contract violation (two incremental
  /// trackers on one graph would each miss the other's baseline).
  void set_observer(MutationObserver* observer) {
    ONION_EXPECTS(observer == nullptr || observer_ == nullptr);
    observer_ = observer;
  }
  MutationObserver* observer() const { return observer_; }

  /// Count of mutations ever applied: +1 per node added, edge added, or
  /// edge removed, and +degree+1 for remove_node (its edge detachments
  /// count individually). Monotone; lets an observer assert it has seen
  /// every change since it attached.
  std::uint64_t mutation_epoch() const { return epoch_; }

 private:
  std::vector<std::vector<NodeId>> adjacency_;
  std::vector<std::uint8_t> alive_;
  std::size_t num_alive_ = 0;
  std::size_t num_edges_ = 0;
  std::uint64_t epoch_ = 0;
  MutationObserver* observer_ = nullptr;
};

/// Replaces `out` with v's neighbours-of-neighbours that are neither v
/// nor adjacent to v — the NoN candidates a node refills from — each
/// once, in first-seen order (v's list in order, each neighbour's list
/// in order). `mark` is caller-owned scratch: all-zero on entry (grown
/// to capacity() here if short) and all-zero again on return.
void non_candidates(const Graph& g, NodeId v, std::vector<std::uint8_t>& mark,
                    std::vector<NodeId>& out);

}  // namespace onion::graph

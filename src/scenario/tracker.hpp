// Event-driven structural telemetry. A StructuralTracker attaches to the
// overlay's graph as a graph::MutationObserver and keeps every structural
// field of MetricsSnapshot — honest/Sybil alive counts, honest-edge count,
// degree sum, the honest degree histogram, components, and the largest
// component — exact per mutation, so a snapshot costs O(1) plus the
// histogram copy instead of the O((n+m)·α) slot-table sweep the engine
// used to pay per snapshot.
//
// Components and the largest component live in a fully-dynamic
// connectivity structure (graph::DynamicConnectivity) that searches the
// overlay graph itself: insertions merge by weighted relabeling,
// deletions queue their endpoints. fill(), the tracker's one reader of
// components, settles everything queued since the last snapshot with
// one multi-frontier search per affected component, so a snapshot window
// of many deletions, joins, refills and SOAP rounds pays one search per
// component it touched rather than one per lost edge. Takedown-heavy
// campaigns (the paper's Section V resilience sweeps) pay per-event
// costs proportional to actual structural change, not to graph size.
// tests/tracker_test.cpp proves byte-equality with the from-scratch
// sweep across randomized join/leave/takedown/SOAP interleavings.
//
// The tracker also keeps an order-statistics bitmap over honest alive
// slots, so the engine can draw a uniform honest victim, and a joining
// bot's bootstrap peers, in O(log n) per draw
// (honest_at(k) == honest_nodes()[k] without building the vector).
#pragma once

#include <cstdint>
#include <vector>

#include "common/order_stat.hpp"
#include "core/overlay.hpp"
#include "graph/dynamic_connectivity.hpp"
#include "graph/graph.hpp"
#include "scenario/snapshot.hpp"

namespace onion::scenario {

/// Reference implementation: the from-scratch O((n+m)·α) sweep of the
/// same structural fields the tracker maintains incrementally (exactly
/// the engine's former per-snapshot pass). Non-structural fields are left
/// at their defaults. The differential tests and the sweep-vs-incremental
/// micro bench compare against this.
MetricsSnapshot sweep_structural(const core::OverlayNetwork& net,
                                 bool degree_histogram);

/// Maintains the structural snapshot fields per graph mutation. Attaches
/// to net.graph_mut() on construction and detaches in the destructor.
/// Attach absorbs the current state in bulk: one
/// OverlayNetwork::honest_component_labels() pass feeds
/// DynamicConnectivity::load (no per-edge merges), and one slot pass
/// fills the counters, the histogram and the honest bitmap (a linear
/// Fenwick build). One tracker per graph;
/// nodes must enter through OverlayNetwork::add_node so honesty metadata
/// exists when the node-added callback classifies them.
class StructuralTracker final : public graph::MutationObserver {
 public:
  using NodeId = graph::NodeId;

  explicit StructuralTracker(core::OverlayNetwork& net);
  ~StructuralTracker() override;
  StructuralTracker(const StructuralTracker&) = delete;
  StructuralTracker& operator=(const StructuralTracker&) = delete;

  // graph::MutationObserver — insertions are O(1) amortized (weighted-
  // union relabeling); an honest-honest edge removal is O(1) and leaves
  // its replacement-path search to the next fill().
  void on_node_added(NodeId u) override;
  void on_node_removed(NodeId u) override;
  void on_edge_added(NodeId u, NodeId v) override;
  void on_edge_removed(NodeId u, NodeId v) override;

  /// Settles the deletions queued since the last fill, then writes the
  /// structural fields into `s`: byte-identical to sweep_structural() on
  /// the same state. O(1) plus the histogram copy, plus the settle's
  /// searches when the window deleted honest edges.
  void fill(MetricsSnapshot& s, bool with_histogram);

  /// --- honest-population order statistics ----------------------------
  /// Number of honest alive nodes. Victim draws (leaves, random strikes)
  /// and bootstrap peering draw ranks below it and resolve them here.
  std::uint64_t honest_alive() const { return honest_alive_; }
  /// Id of the k-th honest alive node in ascending id order — equal to
  /// net.honest_nodes()[k], in O(log n) and without the O(n) vector.
  NodeId honest_at(std::uint64_t k) const {
    return static_cast<NodeId>(honest_set_.select(k));
  }

  /// --- introspection (tests and benches) -----------------------------
  /// The underlying connectivity structure (search-step counters etc.).
  /// Its component queries answer only after a fill().
  const graph::DynamicConnectivity& connectivity() const { return dc_; }

 private:
  /// Moves one honest node between histogram buckets (kNoBucket = none).
  static constexpr std::size_t kNoBucket = ~std::size_t{0};
  void shift_histogram(std::size_t from, std::size_t to);

  const core::OverlayNetwork& net_;
  graph::Graph& graph_;

  // Exact per-mutation counters.
  std::uint64_t honest_alive_ = 0;
  std::uint64_t sybil_alive_ = 0;
  std::uint64_t honest_edges_ = 0;
  std::uint64_t degree_sum_ = 0;  // honest nodes, all incident edges
  std::vector<std::uint32_t> histogram_;  // trimmed: no trailing zeros

  // Fully-dynamic honest-subgraph connectivity.
  graph::DynamicConnectivity dc_;
  // Honest alive slots as a rank/select bitmap (engine victim draws).
  OrderStatSet honest_set_;

  // Every mutation since attach must have been observed: fill() asserts
  // graph_.mutation_epoch() == base_epoch_ + events_seen_.
  std::uint64_t base_epoch_ = 0;
  std::uint64_t events_seen_ = 0;
};

}  // namespace onion::scenario

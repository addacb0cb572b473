#include "scenario/tracker.hpp"

#include <utility>

#include "graph/union_find.hpp"

namespace onion::scenario {

using graph::NodeId;

MetricsSnapshot sweep_structural(const core::OverlayNetwork& net,
                                 bool degree_histogram) {
  MetricsSnapshot s;
  const graph::Graph& g = net.graph();
  const std::size_t cap = g.capacity();

  // One pass over the slot table: alive counts, honest degree histogram,
  // and union-find over honest-honest edges — O((n+m)·α(n)) total.
  graph::UnionFind uf(cap);
  std::uint64_t degree_sum = 0;
  for (NodeId u = 0; u < cap; ++u) {
    if (!g.alive(u)) continue;
    if (!net.honest(u)) {
      ++s.sybil_alive;
      continue;
    }
    ++s.honest_alive;
    const std::size_t d = g.degree(u);
    degree_sum += d;
    if (degree_histogram) {
      if (s.degree_histogram.size() <= d)
        s.degree_histogram.resize(d + 1, 0);
      ++s.degree_histogram[d];
    }
    for (const NodeId v : g.neighbors(u))
      if (v > u && net.honest(v)) {
        ++s.honest_edges;
        uf.unite(u, v);
      }
  }

  if (s.honest_alive > 0) {
    std::vector<std::uint32_t> comp_size(cap, 0);
    for (NodeId u = 0; u < cap; ++u) {
      if (!g.alive(u) || !net.honest(u)) continue;
      const std::uint32_t size = ++comp_size[uf.find(u)];
      if (size == 1) ++s.components;
      if (size > s.largest_component) s.largest_component = size;
    }
    s.largest_fraction = static_cast<double>(s.largest_component) /
                         static_cast<double>(s.honest_alive);
    s.average_degree = static_cast<double>(degree_sum) /
                       static_cast<double>(s.honest_alive);
  }
  return s;
}

StructuralTracker::StructuralTracker(core::OverlayNetwork& net)
    : net_(net), graph_(net.graph_mut()), dc_(graph_) {
  graph_.set_observer(this);  // throws if another observer is attached
  base_epoch_ = graph_.mutation_epoch();

  // Absorb the current state. Connectivity comes from one labelling
  // pass over the contiguous adjacency; the counters, histogram and
  // honest bitmap from one more. Honest alive slots are exactly the
  // labelled ones.
  const std::vector<std::uint32_t> labels = net_.honest_component_labels();
  dc_.load(labels);
  honest_edges_ = dc_.num_edges();
  const std::size_t cap = graph_.capacity();
  std::vector<std::uint8_t> honest(cap, 0);
  for (NodeId u = 0; u < cap; ++u) {
    if (!graph_.alive(u)) continue;
    if (labels[u] == graph::DynamicConnectivity::kUntracked) {
      ++sybil_alive_;
      continue;
    }
    ++honest_alive_;
    honest[u] = 1;
    const std::size_t d = graph_.degree(u);
    degree_sum_ += d;
    if (histogram_.size() <= d) histogram_.resize(d + 1, 0);
    ++histogram_[d];
  }
  honest_set_.assign(std::move(honest));
}

StructuralTracker::~StructuralTracker() { graph_.set_observer(nullptr); }

void StructuralTracker::shift_histogram(std::size_t from, std::size_t to) {
  if (from != kNoBucket) {
    ONION_ENSURES_MSG(from < histogram_.size() && histogram_[from] > 0,
                      "degree bucket " << from << " is empty or out of "
                                       << "range (histogram size "
                                       << histogram_.size() << ")");
    --histogram_[from];
  }
  if (to != kNoBucket) {
    if (histogram_.size() <= to) histogram_.resize(to + 1, 0);
    ++histogram_[to];
  }
  // Keep the sweep's encoding invariant — the vector ends at the highest
  // populated bucket — so fill() can copy it verbatim. Draining the top
  // bucket (e.g. taking down the unique max-degree node) trims here, once,
  // instead of on every snapshot.
  while (!histogram_.empty() && histogram_.back() == 0) histogram_.pop_back();
}

void StructuralTracker::on_node_added(NodeId u) {
  ++events_seen_;
  honest_set_.ensure_size(graph_.capacity());
  if (net_.honest(u)) {
    ++honest_alive_;
    shift_histogram(kNoBucket, 0);
    dc_.insert_vertex(u);
    honest_set_.set(u);
  } else {
    ++sybil_alive_;
  }
}

void StructuralTracker::on_node_removed(NodeId u) {
  ++events_seen_;
  if (net_.honest(u)) {
    // The graph detaches every incident edge before this fires, so the
    // node sits in the degree-0 bucket by now.
    --honest_alive_;
    shift_histogram(0, kNoBucket);
    dc_.remove_vertex(u);
    honest_set_.clear(u);
  } else {
    --sybil_alive_;
  }
}

void StructuralTracker::on_edge_added(NodeId u, NodeId v) {
  ++events_seen_;
  const bool hu = net_.honest(u);
  const bool hv = net_.honest(v);
  if (hu) {
    ++degree_sum_;
    const std::size_t d = graph_.degree(u);
    shift_histogram(d - 1, d);
  }
  if (hv) {
    ++degree_sum_;
    const std::size_t d = graph_.degree(v);
    shift_histogram(d - 1, d);
  }
  if (hu && hv) {
    ++honest_edges_;
    dc_.insert_edge(u, v);
  }
}

void StructuralTracker::on_edge_removed(NodeId u, NodeId v) {
  ++events_seen_;
  const bool hu = net_.honest(u);
  const bool hv = net_.honest(v);
  if (hu) {
    --degree_sum_;
    const std::size_t d = graph_.degree(u);
    shift_histogram(d + 1, d);
  }
  if (hv) {
    --degree_sum_;
    const std::size_t d = graph_.degree(v);
    shift_histogram(d + 1, d);
  }
  if (hu && hv) {
    --honest_edges_;
    // The next fill() settles the split (or proves there is none).
    dc_.remove_edge(u, v);
  }
}

void StructuralTracker::fill(MetricsSnapshot& s, bool with_histogram) {
  // Any mutation this tracker did not observe breaks every counter; the
  // epoch makes that loud instead of silently wrong.
  ONION_ENSURES_MSG(graph_.mutation_epoch() == base_epoch_ + events_seen_,
                    "missed mutations: graph epoch "
                        << graph_.mutation_epoch() << " != base "
                        << base_epoch_ << " + observed " << events_seen_);
  s.honest_alive = honest_alive_;
  s.sybil_alive = sybil_alive_;
  s.honest_edges = honest_edges_;
  dc_.settle();
  if (honest_alive_ > 0) {
    s.components = dc_.components();
    s.largest_component = dc_.largest_component();
    s.largest_fraction = static_cast<double>(s.largest_component) /
                         static_cast<double>(honest_alive_);
    s.average_degree = static_cast<double>(degree_sum_) /
                       static_cast<double>(honest_alive_);
  }
  if (with_histogram) s.degree_histogram = histogram_;
}

}  // namespace onion::scenario

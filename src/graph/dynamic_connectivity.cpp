#include "graph/dynamic_connectivity.hpp"

#include <algorithm>

namespace onion::graph {

void DynamicConnectivity::reset() {
  const std::size_t cap = g_.capacity();
  label_.assign(cap, kNil);
  member_next_.assign(cap, kNil);
  member_prev_.assign(cap, kNil);
  visit_mark_.assign(cap, 0);
  visit_side_.assign(cap, 0);
  comp_size_.clear();
  comp_head_.clear();
  comp_free_.clear();
  size_counts_.clear();
  num_vertices_ = 0;
  num_edges_ = 0;
  components_ = 0;
  merges_ = 0;
  splits_ = 0;
  search_steps_ = 0;
  epoch_ = 0;
  queue_a_.clear();
  queue_b_.clear();
}

void DynamicConnectivity::grow() {
  const std::size_t cap = g_.capacity();
  if (cap <= label_.size()) return;
  label_.resize(cap, kNil);
  member_next_.resize(cap, kNil);
  member_prev_.resize(cap, kNil);
  visit_mark_.resize(cap, 0);
  visit_side_.resize(cap, 0);
}

std::uint32_t DynamicConnectivity::alloc_component() {
  if (!comp_free_.empty()) {
    const std::uint32_t c = comp_free_.back();
    comp_free_.pop_back();
    return c;
  }
  const std::uint32_t c = static_cast<std::uint32_t>(comp_size_.size());
  comp_size_.push_back(0);
  comp_head_.push_back(kNil);
  return c;
}

void DynamicConnectivity::free_component(std::uint32_t c) {
  comp_size_[c] = 0;
  comp_head_[c] = kNil;
  comp_free_.push_back(c);
}

void DynamicConnectivity::add_size(std::uint32_t s) { ++size_counts_[s]; }

void DynamicConnectivity::drop_size(std::uint32_t s) {
  const auto it = size_counts_.find(s);
  ONION_ENSURES(it != size_counts_.end() && it->second > 0);
  if (--it->second == 0) size_counts_.erase(it);
}

void DynamicConnectivity::insert_vertex(NodeId u) {
  ONION_EXPECTS_MSG(g_.alive(u) && !tracked(u), "u=" << u);
  grow();
  const std::uint32_t c = alloc_component();
  comp_size_[c] = 1;
  comp_head_[c] = u;
  label_[u] = c;
  member_next_[u] = u;
  member_prev_[u] = u;
  ++num_vertices_;
  ++components_;
  add_size(1);
}

void DynamicConnectivity::remove_vertex(NodeId u) {
  ONION_EXPECTS_MSG(tracked(u), "u=" << u);
  const std::uint32_t c = label_[u];
  // Removing u's last tracked edge already split it into a singleton
  // (the u-side frontier of the replacement search cannot expand), so
  // the component record must be exactly {u}.
  ONION_EXPECTS_MSG(comp_size_[c] == 1,
                    "u=" << u << " still shares a component of size "
                         << comp_size_[c]);
  drop_size(1);
  free_component(c);
  label_[u] = kNil;
  --components_;
  --num_vertices_;
}

void DynamicConnectivity::load(const std::vector<std::uint32_t>& labels) {
  const std::size_t cap = g_.capacity();
  ONION_EXPECTS_MSG(labels.size() == cap,
                    "labels=" << labels.size() << " capacity=" << cap);
  reset();

  // Components straight from the labels: each roster is its members in
  // ascending id order. Each tracked edge is counted (and checked against
  // the labelling) from its higher endpoint, once the lower one is in.
  for (NodeId u = 0; u < cap; ++u) {
    const std::uint32_t c = labels[u];
    if (c == kUntracked) continue;
    if (c >= comp_size_.size()) {
      comp_size_.resize(c + 1, 0);
      comp_head_.resize(c + 1, kNil);
    }
    label_[u] = c;
    const std::uint32_t head = comp_head_[c];
    if (head == kNil) {
      comp_head_[c] = u;
      member_next_[u] = u;
      member_prev_[u] = u;
    } else {  // append before the head = at the tail of the circle
      const std::uint32_t tail = member_prev_[head];
      member_next_[tail] = u;
      member_prev_[u] = tail;
      member_next_[u] = head;
      member_prev_[head] = u;
    }
    ++comp_size_[c];
    ++num_vertices_;
    for (const NodeId v : g_.neighbors(u)) {
      if (v > u || label_[v] == kNil) continue;
      ONION_EXPECTS_MSG(label_[v] == c, "edge " << v << "-" << u
                                                << " crosses components "
                                                << label_[v] << " and " << c);
      ++num_edges_;
    }
  }
  for (std::uint32_t c = 0; c < comp_size_.size(); ++c) {
    ONION_EXPECTS_MSG(comp_size_[c] > 0, "component label " << c
                                                            << " unused");
    add_size(comp_size_[c]);
  }
  components_ = comp_size_.size();
}

void DynamicConnectivity::insert_edge(NodeId u, NodeId v) {
  ONION_EXPECTS_MSG(tracked(u) && tracked(v) && u != v,
                    "u=" << u << " v=" << v);
  ONION_DEBUG_EXPECTS(g_.has_edge(u, v));
  ++num_edges_;

  std::uint32_t big = label_[u];
  std::uint32_t small = label_[v];
  if (big == small) return;  // closed a cycle — components unchanged
  if (comp_size_[big] < comp_size_[small]) std::swap(big, small);

  // Weighted union: relabel the smaller roster, then splice the two
  // circular member lists in O(1).
  const std::uint32_t start = comp_head_[small];
  std::uint32_t m = start;
  do {
    label_[m] = big;
    m = member_next_[m];
  } while (m != start);
  const std::uint32_t a = comp_head_[big];
  const std::uint32_t an = member_next_[a];
  const std::uint32_t bn = member_next_[start];
  member_next_[a] = bn;
  member_prev_[bn] = a;
  member_next_[start] = an;
  member_prev_[an] = start;

  drop_size(comp_size_[big]);
  drop_size(comp_size_[small]);
  comp_size_[big] += comp_size_[small];
  add_size(comp_size_[big]);
  free_component(small);
  --components_;
  ++merges_;
}

bool DynamicConnectivity::expand(std::vector<NodeId>& queue,
                                 std::size_t& head, std::uint8_t side) {
  const NodeId x = queue[head++];
  ++search_steps_;
  for (const NodeId w : g_.neighbors(x)) {
    if (!tracked(w)) continue;  // no path through untracked slots (Sybils)
    if (visit_mark_[w] == epoch_) {
      if (visit_side_[w] != side) return true;  // frontiers met
      continue;
    }
    visit_mark_[w] = epoch_;
    visit_side_[w] = side;
    queue.push_back(w);
  }
  return false;
}

void DynamicConnectivity::split_component(const std::vector<NodeId>& members,
                                          std::uint32_t old_comp) {
  const std::uint32_t moved = static_cast<std::uint32_t>(members.size());
  const std::uint32_t old_total = comp_size_[old_comp];
  // The other frontier's seed is never claimed by the exhausted side, so
  // at least one member stays behind.
  ONION_ENSURES(moved < old_total);

  // Unlink the moved members from the old circular roster. A member's
  // next/prev pointers are repaired by earlier unlinks, so they always
  // reference nodes still on the list; the head pointer chases forward
  // until it settles on a survivor.
  for (const NodeId m : members) {
    const std::uint32_t n = member_next_[m];
    const std::uint32_t p = member_prev_[m];
    member_next_[p] = n;
    member_prev_[n] = p;
    if (comp_head_[old_comp] == m) comp_head_[old_comp] = n;
  }

  const std::uint32_t c = alloc_component();
  const std::size_t k = members.size();
  for (std::size_t i = 0; i < k; ++i) {
    const NodeId m = members[i];
    label_[m] = c;
    member_next_[m] = members[i + 1 == k ? 0 : i + 1];
    member_prev_[m] = members[i == 0 ? k - 1 : i - 1];
  }
  comp_head_[c] = members[0];
  comp_size_[c] = moved;
  comp_size_[old_comp] = old_total - moved;

  drop_size(old_total);
  add_size(moved);
  add_size(old_total - moved);
  ++components_;
  ++splits_;
}

void DynamicConnectivity::remove_edge(NodeId u, NodeId v) {
  ONION_EXPECTS_MSG(tracked(u) && tracked(v) && u != v &&
                        label_[u] == label_[v] && !g_.has_edge(u, v),
                    "u=" << u << " v=" << v
                         << ": both must be tracked, in one component, "
                            "and the edge already gone from the graph");
  --num_edges_;

  // Replacement-path search: alternate one-vertex BFS expansions from
  // both endpoints. Meeting ⇒ the edge was cycle-covered, nothing to do;
  // one side exhausting ⇒ it was a bridge and the exhausted (smaller, to
  // within one alternation) side becomes a new component.
  if (++epoch_ == 0) {  // epoch wrapped: invalidate stale marks
    std::fill(visit_mark_.begin(), visit_mark_.end(), 0u);
    epoch_ = 1;
  }
  queue_a_.clear();
  queue_b_.clear();
  queue_a_.push_back(u);
  visit_mark_[u] = epoch_;
  visit_side_[u] = 0;
  queue_b_.push_back(v);
  visit_mark_[v] = epoch_;
  visit_side_[v] = 1;
  std::size_t head_a = 0;
  std::size_t head_b = 0;
  while (true) {
    if (head_a == queue_a_.size()) {
      split_component(queue_a_, label_[u]);
      return;
    }
    if (expand(queue_a_, head_a, 0)) return;
    if (head_b == queue_b_.size()) {
      split_component(queue_b_, label_[v]);
      return;
    }
    if (expand(queue_b_, head_b, 1)) return;
  }
}

}  // namespace onion::graph

#include "graph/dynamic_connectivity.hpp"

#include <algorithm>

namespace onion::graph {

void DynamicConnectivity::reset() {
  const std::size_t cap = g_.capacity();
  label_.assign(cap, kNil);
  member_next_.assign(cap, kNil);
  member_prev_.assign(cap, kNil);
  visit_mark_.assign(cap, 0);
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
  queued_.clear();
  // Search scratch is sized up front, so a run's searches allocate
  // nothing once attached. Growing it mid-run, between the graph's own
  // reallocations, fragmented the heap: on the pinned 500k campaign the
  // peak RSS of back-to-back runs rose by 10 MB.
  queued_.reserve(kScratchReach);
  frontiers_.reserve(kScratchSeeds);
  reach_.reserve(std::min<std::size_t>(cap, kScratchReach));
}

void DynamicConnectivity::grow() {
  const std::size_t cap = g_.capacity();
  if (cap <= label_.size()) return;
  label_.resize(cap, kNil);
  member_next_.resize(cap, kNil);
  member_prev_.resize(cap, kNil);
  visit_mark_.resize(cap, 0);
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
  ONION_EXPECTS_MSG(tracked(u) && !g_.alive(u), "u=" << u);
  const std::uint32_t c = label_[u];
  const std::uint32_t size = comp_size_[c];
  drop_size(size);
  if (size == 1) {
    free_component(c);
    --components_;
  } else {  // leave the rest of the stale roster; settle() splits it
    const std::uint32_t n = member_next_[u];
    const std::uint32_t p = member_prev_[u];
    member_next_[p] = n;
    member_prev_[n] = p;
    if (comp_head_[c] == u) comp_head_[c] = n;
    comp_size_[c] = size - 1;
    add_size(size - 1);
  }
  label_[u] = kNil;
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

void DynamicConnectivity::split_component(std::uint32_t first,
                                          std::uint32_t moved,
                                          std::uint32_t old_comp) {
  const std::uint32_t old_total = comp_size_[old_comp];
  // The last class holds at least one seed, so someone stays behind.
  ONION_ENSURES(moved < old_total);

  // Unlink the moved members from the old circular roster. A member's
  // next/prev pointers are repaired by earlier unlinks, so they always
  // reference nodes still on the list; the head pointer chases forward
  // until it settles on a survivor.
  for (std::uint32_t e = first; e != kNil; e = reach_[e].next) {
    const NodeId m = reach_[e].v;
    const std::uint32_t n = member_next_[m];
    const std::uint32_t p = member_prev_[m];
    member_next_[p] = n;
    member_prev_[n] = p;
    if (comp_head_[old_comp] == m) comp_head_[old_comp] = n;
  }

  // The new roster is the members in list order.
  const std::uint32_t c = alloc_component();
  const NodeId head = reach_[first].v;
  NodeId last = head;
  for (std::uint32_t e = first; e != kNil; e = reach_[e].next) {
    const NodeId m = reach_[e].v;
    label_[m] = c;
    member_next_[last] = m;
    member_prev_[m] = last;
    last = m;
  }
  member_next_[last] = head;
  member_prev_[head] = last;
  comp_head_[c] = head;
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
  queued_.push_back(u);
  queued_.push_back(v);
}

void DynamicConnectivity::settle() {
  // Surviving endpoints, each once, grouped by their (too coarse) label.
  // Every true piece of a label that lost an edge holds one of them, so a
  // label with a single survivor is still exact.
  std::erase_if(queued_, [this](NodeId x) { return !tracked(x); });
  std::sort(queued_.begin(), queued_.end(), [this](NodeId a, NodeId b) {
    return label_[a] != label_[b] ? label_[a] < label_[b] : a < b;
  });
  queued_.erase(std::unique(queued_.begin(), queued_.end()), queued_.end());
  // A search relabels only its own group, so later groups keep theirs.
  for (std::size_t i = 0; i < queued_.size();) {
    std::size_t j = i + 1;
    while (j < queued_.size() && label_[queued_[j]] == label_[queued_[i]]) ++j;
    if (j - i >= 2)
      search(std::span<const NodeId>(queued_).subspan(i, j - i));
    i = j;
  }
  queued_.clear();
}

std::uint32_t DynamicConnectivity::reserve_marks(std::uint32_t k) {
  if (epoch_ > kNil - k) {  // would wrap: invalidate every stale mark
    std::fill(visit_mark_.begin(), visit_mark_.end(), 0u);
    epoch_ = 0;
  }
  const std::uint32_t first = epoch_ + 1;
  epoch_ += k;
  return first;
}

void DynamicConnectivity::push_back(List& list, std::uint32_t entry) {
  reach_[entry].next = kNil;
  if (list.tail == kNil)
    list.head = entry;
  else
    reach_[list.tail].next = entry;
  list.tail = entry;
}

std::uint32_t DynamicConnectivity::find_frontier(std::uint32_t f) {
  while (frontiers_[f].parent != f) {  // path halving
    frontiers_[f].parent = frontiers_[frontiers_[f].parent].parent;
    f = frontiers_[f].parent;
  }
  return f;
}

std::uint32_t DynamicConnectivity::unlink_frontier(std::uint32_t f) {
  const std::uint32_t n = frontiers_[f].next;
  const std::uint32_t p = frontiers_[f].prev;
  frontiers_[p].next = n;
  frontiers_[n].prev = p;
  return n;
}

std::uint32_t DynamicConnectivity::unite_frontiers(std::uint32_t a,
                                                   std::uint32_t b) {
  if (frontiers_[a].size < frontiers_[b].size) std::swap(a, b);
  Frontier& root = frontiers_[a];
  Frontier& absorbed = frontiers_[b];
  for (const auto list : {&Frontier::expanded, &Frontier::queued}) {
    const List& from = absorbed.*list;
    List& to = root.*list;
    if (from.head == kNil) continue;
    if (to.tail == kNil)
      to.head = from.head;
    else
      reach_[to.tail].next = from.head;
    to.tail = from.tail;
  }
  root.size += absorbed.size;
  absorbed.parent = a;
  unlink_frontier(b);
  return a;
}

void DynamicConnectivity::search(std::span<const NodeId> seeds) {
  const auto k = static_cast<std::uint32_t>(seeds.size());
  const std::uint32_t comp = label_[seeds[0]];
  // Frontier f stamps base + f, so one mark says both "reached in this
  // search" and by whom; every older mark is below base.
  const std::uint32_t base = reserve_marks(k);
  if (frontiers_.size() < k) frontiers_.resize(k);
  reach_.clear();
  for (std::uint32_t f = 0; f < k; ++f) {
    Frontier& fr = frontiers_[f];
    fr = Frontier{};
    fr.parent = f;
    fr.next = f + 1 == k ? 0 : f + 1;
    fr.prev = f == 0 ? k - 1 : f - 1;
    fr.size = 1;
    reach_.push_back({seeds[f], kNil});
    push_back(fr.queued, f);
    visit_mark_[seeds[f]] = base + f;
  }
  // Live classes take turns expanding one vertex each. A class with
  // nothing left to expand is a whole component and splits off; the last
  // class keeps `comp`.
  std::uint32_t live = k;
  std::uint32_t turn = 0;
  while (live > 1) {
    Frontier& fr = frontiers_[turn];
    const std::uint32_t e = fr.queued.head;
    if (e == kNil) {
      split_component(fr.expanded.head, fr.size, comp);
      turn = unlink_frontier(turn);
      --live;
      continue;
    }
    fr.queued.head = reach_[e].next;
    if (fr.queued.head == kNil) fr.queued.tail = kNil;
    push_back(fr.expanded, e);
    ++search_steps_;
    for (const NodeId w : g_.neighbors(reach_[e].v)) {
      if (!tracked(w)) continue;  // no path through untracked slots (Sybils)
      if (visit_mark_[w] < base) {
        visit_mark_[w] = base + turn;
        reach_.push_back({w, kNil});
        push_back(frontiers_[turn].queued,
                  static_cast<std::uint32_t>(reach_.size() - 1));
        ++frontiers_[turn].size;
        continue;
      }
      const std::uint32_t other = find_frontier(visit_mark_[w] - base);
      if (other == turn) continue;
      turn = unite_frontiers(turn, other);  // the frontiers met
      if (--live == 1) break;
    }
    turn = frontiers_[turn].next;
  }
}

}  // namespace onion::graph

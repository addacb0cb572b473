#include "graph/graph.hpp"

#include <algorithm>

namespace onion::graph {

Graph::Graph(std::size_t n)
    : adjacency_(n), alive_(n, 1), num_alive_(n) {}

Graph::Graph(const Graph& other)
    : adjacency_(other.adjacency_),
      alive_(other.alive_),
      num_alive_(other.num_alive_),
      num_edges_(other.num_edges_),
      epoch_(other.epoch_) {}

Graph& Graph::operator=(const Graph& other) {
  // Overwriting an observed graph would silently invalidate everything
  // the observer has accumulated; detach first.
  ONION_EXPECTS(observer_ == nullptr);
  adjacency_ = other.adjacency_;
  alive_ = other.alive_;
  num_alive_ = other.num_alive_;
  num_edges_ = other.num_edges_;
  epoch_ = other.epoch_;
  return *this;
}

Graph::Graph(Graph&& other) {
  // An attached observer holds a reference to `other` itself; moving the
  // pointer here would leave it notifying against a gutted graph.
  ONION_EXPECTS(other.observer_ == nullptr);
  adjacency_ = std::move(other.adjacency_);
  alive_ = std::move(other.alive_);
  num_alive_ = other.num_alive_;
  num_edges_ = other.num_edges_;
  epoch_ = other.epoch_;
  other.num_alive_ = 0;  // the source stays a valid (empty) graph
  other.num_edges_ = 0;
  other.epoch_ = 0;
}

Graph& Graph::operator=(Graph&& other) {
  ONION_EXPECTS(observer_ == nullptr && other.observer_ == nullptr);
  if (this == &other) return *this;
  adjacency_ = std::move(other.adjacency_);
  alive_ = std::move(other.alive_);
  num_alive_ = other.num_alive_;
  num_edges_ = other.num_edges_;
  epoch_ = other.epoch_;
  other.num_alive_ = 0;
  other.num_edges_ = 0;
  other.epoch_ = 0;
  return *this;
}

NodeId Graph::add_node() {
  adjacency_.emplace_back();
  alive_.push_back(1);
  ++num_alive_;
  ++epoch_;
  const NodeId id = static_cast<NodeId>(adjacency_.size() - 1);
  if (observer_ != nullptr) observer_->on_node_added(id);
  return id;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  ONION_EXPECTS_MSG(alive(u) && alive(v), "u=" << u << " v=" << v);
  // Scan the shorter list.
  const auto& list =
      adjacency_[u].size() <= adjacency_[v].size() ? adjacency_[u]
                                                   : adjacency_[v];
  const NodeId target =
      adjacency_[u].size() <= adjacency_[v].size() ? v : u;
  return std::find(list.begin(), list.end(), target) != list.end();
}

bool Graph::add_edge(NodeId u, NodeId v) {
  ONION_EXPECTS_MSG(alive(u) && alive(v), "u=" << u << " v=" << v);
  if (u == v || has_edge(u, v)) return false;
  adjacency_[u].push_back(v);
  adjacency_[v].push_back(u);
  ++num_edges_;
  ++epoch_;
  if (observer_ != nullptr) observer_->on_edge_added(u, v);
  return true;
}

void Graph::add_edge_unchecked(NodeId u, NodeId v) {
  ONION_EXPECTS_MSG(alive(u) && alive(v), "u=" << u << " v=" << v);
  ONION_EXPECTS_MSG(u != v, "self-loop on node " << u);
  ONION_DEBUG_EXPECTS(!has_edge(u, v));
  adjacency_[u].push_back(v);
  adjacency_[v].push_back(u);
  ++num_edges_;
  ++epoch_;
  if (observer_ != nullptr) observer_->on_edge_added(u, v);
}

bool Graph::remove_edge(NodeId u, NodeId v) {
  ONION_EXPECTS_MSG(alive(u) && alive(v), "u=" << u << " v=" << v);
  auto& lu = adjacency_[u];
  const auto it = std::find(lu.begin(), lu.end(), v);
  if (it == lu.end()) return false;
  // Swap-erase: O(1), and the order neighbors() documents (the last
  // entry takes the removed one's place).
  *it = lu.back();
  lu.pop_back();
  auto& lv = adjacency_[v];
  const auto it2 = std::find(lv.begin(), lv.end(), u);
  ONION_ENSURES_MSG(it2 != lv.end(),
                    "asymmetric adjacency: " << u << " lists " << v
                                             << " but not vice versa");
  *it2 = lv.back();
  lv.pop_back();
  --num_edges_;
  ++epoch_;
  if (observer_ != nullptr) observer_->on_edge_removed(u, v);
  return true;
}

void Graph::remove_node(NodeId u) {
  ONION_EXPECTS_MSG(alive(u), "node " << u << " is not alive");
  // Detach edge by edge (not in one bulk clear) so the observer sees a
  // consistent graph — correct degrees on both endpoints — at every
  // on_edge_removed. The final adjacency state is identical to a bulk
  // detach: each neighbor's list gets one order-independent swap-erase.
  auto& lu = adjacency_[u];
  while (!lu.empty()) {
    const NodeId v = lu.back();
    lu.pop_back();
    auto& lv = adjacency_[v];
    const auto it = std::find(lv.begin(), lv.end(), u);
    ONION_ENSURES_MSG(it != lv.end(),
                      "asymmetric adjacency: " << u << " lists " << v
                                               << " but not vice versa");
    *it = lv.back();
    lv.pop_back();
    --num_edges_;
    ++epoch_;
    if (observer_ != nullptr) observer_->on_edge_removed(u, v);
  }
  lu.shrink_to_fit();
  alive_[u] = 0;
  --num_alive_;
  ++epoch_;
  if (observer_ != nullptr) observer_->on_node_removed(u);
}

void Graph::order_lower_neighbors_first() {
  std::vector<NodeId> higher;
  for (NodeId u = 0; u < adjacency_.size(); ++u) {
    auto& list = adjacency_[u];
    higher.clear();
    auto lower_end = list.begin();
    for (const NodeId v : list) {  // compaction never overtakes the read
      if (v < u)
        *lower_end++ = v;
      else
        higher.push_back(v);
    }
    std::sort(list.begin(), lower_end);
    std::copy(higher.begin(), higher.end(), lower_end);
  }
}

std::vector<NodeId> Graph::alive_nodes() const {
  std::vector<NodeId> out;
  out.reserve(num_alive_);
  for (NodeId u = 0; u < alive_.size(); ++u)
    if (alive_[u]) out.push_back(u);
  return out;
}

double Graph::average_degree() const {
  if (num_alive_ == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges_) /
         static_cast<double>(num_alive_);
}

void non_candidates(const Graph& g, NodeId v, std::vector<std::uint8_t>& mark,
                    std::vector<NodeId>& out) {
  if (mark.size() < g.capacity()) mark.resize(g.capacity(), 0);
  out.clear();
  const auto& peers = g.neighbors(v);
  mark[v] = 1;
  for (const NodeId n : peers) mark[n] = 1;
  for (const NodeId n : peers) {
    for (const NodeId nn : g.neighbors(n)) {
      if (mark[nn]) continue;
      mark[nn] = 1;
      out.push_back(nn);
    }
  }
  mark[v] = 0;
  for (const NodeId n : peers) mark[n] = 0;
  for (const NodeId nn : out) mark[nn] = 0;
}

}  // namespace onion::graph

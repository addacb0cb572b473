#include "graph/metrics.hpp"

#include <algorithm>

#include "graph/union_find.hpp"

namespace onion::graph {

void bfs_distances_into(const Graph& g, NodeId source, BfsScratch& scratch) {
  ONION_EXPECTS(g.alive(source));
  scratch.dist.assign(g.capacity(), kUnreachable);
  scratch.queue.clear();
  scratch.dist[source] = 0;
  scratch.queue.push_back(source);
  for (std::size_t head = 0; head < scratch.queue.size(); ++head) {
    const NodeId u = scratch.queue[head];
    for (const NodeId v : g.neighbors(u)) {
      if (scratch.dist[v] == kUnreachable) {
        scratch.dist[v] = scratch.dist[u] + 1;
        scratch.queue.push_back(v);
      }
    }
  }
}

std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source) {
  BfsScratch scratch;
  bfs_distances_into(g, source, scratch);
  return std::move(scratch.dist);
}

Components connected_components(const Graph& g) {
  Components out;
  out.label.assign(g.capacity(), kUnreachable);
  std::vector<NodeId> queue;
  for (NodeId start = 0; start < g.capacity(); ++start) {
    if (!g.alive(start) || out.label[start] != kUnreachable) continue;
    const auto comp = static_cast<std::uint32_t>(out.count++);
    out.sizes.push_back(0);
    out.label[start] = comp;
    queue.clear();
    queue.push_back(start);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      ++out.sizes[comp];
      for (const NodeId v : g.neighbors(u)) {
        if (out.label[v] == kUnreachable) {
          out.label[v] = comp;
          queue.push_back(v);
        }
      }
    }
  }
  return out;
}

std::size_t Components::largest() const {
  if (sizes.empty()) return 0;
  return *std::max_element(sizes.begin(), sizes.end());
}

bool is_connected(const Graph& g) {
  return g.num_alive() <= 1 || connected_components(g).count == 1;
}

std::size_t first_partition_index(const Graph& pristine,
                                  const std::vector<NodeId>& order) {
  const std::size_t cap = pristine.capacity();
  std::vector<std::uint8_t> present(cap, 0);
  for (NodeId u = 0; u < cap; ++u)
    present[u] = pristine.alive(u) ? 1 : 0;
  for (const NodeId u : order) {
    ONION_EXPECTS(u < cap && present[u]);  // distinct alive nodes only
    present[u] = 0;
  }

  // Survivor state after all |order| deletions.
  UnionFind uf(cap);
  std::size_t present_count = 0;
  std::size_t sets = 0;  // disjoint sets among present nodes
  for (NodeId u = 0; u < cap; ++u)
    if (present[u]) {
      ++present_count;
      ++sets;
    }
  for (NodeId u = 0; u < cap; ++u) {
    if (!present[u]) continue;
    for (const NodeId v : pristine.neighbors(u))
      if (v > u && present[v] && uf.unite(u, v)) --sets;
  }

  // Walk the deletions in reverse, re-inserting one node at a time;
  // record whether the survivor set after c deletions is partitioned.
  std::vector<std::uint8_t> disconnected(order.size() + 1, 0);
  disconnected.back() = present_count >= 2 && sets > 1;
  for (std::size_t i = order.size(); i-- > 0;) {
    const NodeId u = order[i];
    present[u] = 1;
    ++present_count;
    ++sets;
    for (const NodeId v : pristine.neighbors(u))
      if (present[v] && uf.unite(u, v)) --sets;
    disconnected[i] = present_count >= 2 && sets > 1;
  }

  for (std::size_t c = 1; c <= order.size(); ++c)
    if (disconnected[c]) return c;
  return order.size();
}

namespace {
// Closeness of u given its BFS distances; see header for normalization.
double closeness_from_distances(const std::vector<std::uint32_t>& dist,
                                std::size_t alive_count) {
  if (alive_count <= 1) return 0.0;
  std::uint64_t total = 0;
  std::size_t reachable = 0;  // nodes other than u itself
  for (const std::uint32_t d : dist) {
    if (d == kUnreachable || d == 0) continue;
    total += d;
    ++reachable;
  }
  if (reachable == 0 || total == 0) return 0.0;
  const double r = static_cast<double>(reachable);
  const double n_minus_1 = static_cast<double>(alive_count - 1);
  return (r / n_minus_1) * (r / static_cast<double>(total));
}
}  // namespace

double closeness_centrality(const Graph& g, NodeId u) {
  return closeness_from_distances(bfs_distances(g, u), g.num_alive());
}

double average_closeness_exact(const Graph& g) {
  const auto nodes = g.alive_nodes();
  if (nodes.empty()) return 0.0;
  BfsScratch scratch;
  double sum = 0.0;
  for (const NodeId u : nodes) {
    bfs_distances_into(g, u, scratch);
    sum += closeness_from_distances(scratch.dist, g.num_alive());
  }
  return sum / static_cast<double>(nodes.size());
}

double average_closeness_sampled(const Graph& g, std::size_t samples,
                                 Rng& rng) {
  const auto nodes = g.alive_nodes();
  if (nodes.empty()) return 0.0;
  if (samples >= nodes.size()) return average_closeness_exact(g);
  const auto chosen = rng.sample(nodes, samples);
  BfsScratch scratch;
  double sum = 0.0;
  for (const NodeId u : chosen) {
    bfs_distances_into(g, u, scratch);
    sum += closeness_from_distances(scratch.dist, g.num_alive());
  }
  return sum / static_cast<double>(chosen.size());
}

namespace {
// Brandes workspace: BFS state plus path counts and dependencies. The
// visit order doubles as the BFS queue, so the backward accumulation
// just walks it in reverse.
struct BrandesScratch {
  std::vector<std::uint32_t> dist;
  std::vector<double> sigma;
  std::vector<double> delta;
  std::vector<NodeId> order;
};

// One Brandes source: accumulates scale * dependency(s, w) into bc[w].
void brandes_accumulate(const Graph& g, NodeId s, double scale,
                        BrandesScratch& scr, std::vector<double>& bc) {
  const std::size_t cap = g.capacity();
  scr.dist.assign(cap, kUnreachable);
  scr.sigma.assign(cap, 0.0);
  scr.delta.assign(cap, 0.0);
  scr.order.clear();
  scr.dist[s] = 0;
  scr.sigma[s] = 1.0;
  scr.order.push_back(s);
  for (std::size_t head = 0; head < scr.order.size(); ++head) {
    const NodeId u = scr.order[head];
    for (const NodeId v : g.neighbors(u)) {
      if (scr.dist[v] == kUnreachable) {
        scr.dist[v] = scr.dist[u] + 1;
        scr.order.push_back(v);
      }
      if (scr.dist[v] == scr.dist[u] + 1) scr.sigma[v] += scr.sigma[u];
    }
  }
  for (std::size_t i = scr.order.size(); i-- > 1;) {
    const NodeId w = scr.order[i];
    for (const NodeId v : g.neighbors(w))
      if (scr.dist[v] + 1 == scr.dist[w])
        scr.delta[v] += scr.sigma[v] / scr.sigma[w] * (1.0 + scr.delta[w]);
    bc[w] += scale * scr.delta[w];
  }
}
}  // namespace

std::vector<double> betweenness_exact(const Graph& g) {
  std::vector<double> bc(g.capacity(), 0.0);
  BrandesScratch scr;
  for (NodeId s = 0; s < g.capacity(); ++s)
    if (g.alive(s)) brandes_accumulate(g, s, 1.0, scr, bc);
  // Each unordered pair was counted from both endpoints.
  for (double& x : bc) x *= 0.5;
  return bc;
}

std::vector<double> betweenness_sampled(const Graph& g, std::size_t pivots,
                                        Rng& rng) {
  ONION_EXPECTS(pivots > 0);
  const auto nodes = g.alive_nodes();
  if (pivots >= nodes.size()) return betweenness_exact(g);
  std::vector<double> bc(g.capacity(), 0.0);
  const double scale = static_cast<double>(nodes.size()) /
                       static_cast<double>(pivots);
  BrandesScratch scr;
  for (const NodeId s : rng.sample(nodes, pivots))
    brandes_accumulate(g, s, scale, scr, bc);
  for (double& x : bc) x *= 0.5;
  return bc;
}

double degree_centrality(const Graph& g, NodeId u) {
  const std::size_t n = g.num_alive();
  if (n <= 1) return 0.0;
  return static_cast<double>(g.degree(u)) / static_cast<double>(n - 1);
}

double average_degree_centrality(const Graph& g) {
  const std::size_t n = g.num_alive();
  if (n <= 1) return 0.0;
  // Mean degree / (n-1); uses the edge counter instead of a node loop.
  return g.average_degree() / static_cast<double>(n - 1);
}

namespace {
// Farthest alive node and its distance from the given BFS result.
std::pair<NodeId, std::uint32_t> farthest(
    const std::vector<std::uint32_t>& dist) {
  NodeId best = kInvalidNode;
  std::uint32_t best_d = 0;
  for (NodeId v = 0; v < dist.size(); ++v) {
    if (dist[v] != kUnreachable && dist[v] >= best_d) {
      best_d = dist[v];
      best = v;
    }
  }
  return {best, best_d};
}
}  // namespace

std::size_t diameter_exact(const Graph& g) {
  const auto nodes = g.alive_nodes();
  if (nodes.size() <= 1) return 0;
  // Restrict to the largest component.
  const Components comps = connected_components(g);
  std::uint32_t target = 0;
  std::size_t best_size = 0;
  for (std::uint32_t c = 0; c < comps.count; ++c) {
    if (comps.sizes[c] > best_size) {
      best_size = comps.sizes[c];
      target = c;
    }
  }
  std::uint32_t best = 0;
  BfsScratch scratch;
  for (const NodeId u : nodes) {
    if (comps.label[u] != target) continue;
    bfs_distances_into(g, u, scratch);
    best = std::max(best, farthest(scratch.dist).second);
  }
  return best;
}

std::size_t diameter_double_sweep(const Graph& g, std::size_t sweeps,
                                  Rng& rng) {
  if (g.num_alive() <= 1) return 0;
  // Match diameter_exact semantics: measure the largest component.
  const Components comps = connected_components(g);
  std::uint32_t target = 0;
  std::size_t best_size = 0;
  for (std::uint32_t c = 0; c < comps.count; ++c) {
    if (comps.sizes[c] > best_size) {
      best_size = comps.sizes[c];
      target = c;
    }
  }
  std::vector<NodeId> nodes;
  for (NodeId u = 0; u < g.capacity(); ++u)
    if (g.alive(u) && comps.label[u] == target) nodes.push_back(u);
  if (nodes.size() <= 1) return 0;
  std::uint32_t best = 0;
  BfsScratch scratch;
  for (std::size_t s = 0; s < sweeps; ++s) {
    const NodeId start = rng.pick(nodes);
    bfs_distances_into(g, start, scratch);
    const auto [far_node, d1] = farthest(scratch.dist);
    best = std::max(best, d1);
    if (far_node != kInvalidNode && far_node != start) {
      bfs_distances_into(g, far_node, scratch);
      best = std::max(best, farthest(scratch.dist).second);
    }
  }
  return best;
}

}  // namespace onion::graph

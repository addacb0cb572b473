#include "graph/generators.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/order_stat.hpp"

namespace onion::graph {

namespace {

// One configuration-model attempt: pair up node stubs; clashing pairs
// (self-loops / duplicates) are resolved afterwards by edge swaps.
bool try_regular(Graph& g, std::size_t n, std::size_t k, Rng& rng) {
  std::vector<NodeId> stubs;
  stubs.reserve(n * k);
  for (NodeId u = 0; u < n; ++u)
    for (std::size_t c = 0; c < k; ++c) stubs.push_back(u);
  rng.shuffle(stubs);

  // higher[u] = number of u's neighbours with a larger id, i.e. how many
  // entries u owns in the edge list the repair draws index into.
  g.reserve_degree(k);
  std::vector<std::uint32_t> higher(n, 0);
  std::vector<std::pair<NodeId, NodeId>> clashes;
  for (std::size_t i = 0; i < stubs.size(); i += 2) {
    const NodeId u = stubs[i], v = stubs[i + 1];
    if (u == v || g.has_edge(u, v)) {
      clashes.emplace_back(u, v);
    } else {
      g.add_edge_unchecked(u, v);
      ++higher[std::min(u, v)];
    }
  }

  // Repair each clash {u,v} by stealing a random compatible edge {a,b}:
  // replace it with {u,a} and {v,b}. Preserves all degrees. The stolen
  // edge is entry i of the list "for u ascending, for v in neighbors(u)
  // with v > u"; a Fenwick tree over `higher` finds its owner u, and a
  // scan of u's adjacency finds v, without ever listing the edges.
  FenwickTree owners;
  owners.assign(higher);
  const auto edge_at = [&](std::size_t i) {
    std::size_t offset = 0;
    const NodeId lo = static_cast<NodeId>(owners.find(i, &offset));
    for (const NodeId hi : g.neighbors(lo))
      if (hi > lo && offset-- == 0) return std::pair{lo, hi};
    ONION_ENSURES_MSG(false, "edge index " << i << " past node " << lo);
    return std::pair{lo, lo};  // unreachable
  };

  for (const auto& [u, v] : clashes) {
    bool fixed = false;
    for (int attempt = 0; attempt < 200 && !fixed; ++attempt) {
      if (g.num_edges() == 0) break;
      auto [a, b] =
          edge_at(static_cast<std::size_t>(rng.uniform(g.num_edges())));
      if (rng.bernoulli(0.5)) std::swap(a, b);
      if (a == u || a == v || b == u || b == v) continue;
      if (g.has_edge(u, a) || g.has_edge(v, b)) continue;
      g.remove_edge(a, b);
      g.add_edge(u, a);
      g.add_edge(v, b);
      owners.add(std::min(a, b), -1);
      owners.add(std::min(u, a), +1);
      owners.add(std::min(v, b), +1);
      fixed = true;
    }
    if (!fixed) return false;
  }
  return true;
}

}  // namespace

Graph random_regular(std::size_t n, std::size_t k, Rng& rng) {
  if (k >= n) throw std::invalid_argument("random_regular: need k < n");
  if ((n * k) % 2 != 0)
    throw std::invalid_argument("random_regular: n*k must be even");

  for (int restart = 0; restart < 50; ++restart) {
    Graph g(n);
    if (try_regular(g, n, k, rng)) return g;
  }
  throw std::runtime_error("random_regular: generation failed repeatedly");
}

Graph erdos_renyi(std::size_t n, double p, Rng& rng) {
  Graph g(n);
  if (p <= 0.0) return g;
  for (NodeId u = 0; u + 1 < n; ++u)
    for (NodeId v = u + 1; v < n; ++v)
      if (rng.bernoulli(p)) g.add_edge(u, v);
  return g;
}

}  // namespace onion::graph

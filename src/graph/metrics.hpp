// Graph metrics used in the paper's evaluation (Section V-B):
// closeness centrality, degree centrality, betweenness, diameter,
// connected components. Exact variants serve tests and small graphs;
// sampled variants make the 5000–50000-node sweeps of Figures 4–6 and
// the scenario campaign engine tractable and are validated against the
// exact versions in the test suite. Hot-path entry points take a
// reusable scratch workspace so per-snapshot queries at campaign scale
// do not allocate.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace onion::graph {

/// BFS distances from `source` to every node slot; kUnreachable for dead
/// or unreachable slots.
constexpr std::uint32_t kUnreachable = ~std::uint32_t{0};
std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source);

/// Reusable BFS workspace: the distance array and a flat FIFO queue.
/// One scratch amortizes every allocation across the thousands of BFS
/// runs a campaign snapshot sweep performs.
struct BfsScratch {
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> queue;
};

/// BFS distances written into `scratch.dist` (same contract as
/// bfs_distances); no allocation once the scratch has grown to the
/// graph's capacity.
void bfs_distances_into(const Graph& g, NodeId source, BfsScratch& scratch);

/// Connected-component labelling of alive nodes.
struct Components {
  /// Component index per slot (undefined for dead slots).
  std::vector<std::uint32_t> label;
  /// Number of components (0 for an empty graph).
  std::size_t count = 0;
  /// Size of each component.
  std::vector<std::size_t> sizes;

  std::size_t largest() const;
};
Components connected_components(const Graph& g);

/// True iff all alive nodes are mutually reachable (vacuously true for
/// 0 or 1 alive nodes).
bool is_connected(const Graph& g);

/// First deletion count c (1-based) at which removing order[0..c-1] from
/// `pristine` leaves two or more alive nodes that are mutually
/// disconnected; order.size() when no prefix partitions the survivors.
/// Processes the batch of deletions in reverse as union-find insertions,
/// so the whole sweep costs O((n+m)·α(n)) instead of one BFS per
/// deletion — this is what makes the Figure 6 partition-threshold sweep
/// and simultaneous-takedown campaigns cheap. Precondition: `order`
/// holds distinct alive nodes of `pristine`.
std::size_t first_partition_index(const Graph& pristine,
                                  const std::vector<NodeId>& order);

/// Closeness centrality of `u` in the paper's normalization,
///   C(u) = (n-1) / sum_v d(u,v),
/// generalized to disconnected graphs the way NetworkX does (the tool of
/// the paper's era): restrict to u's component and scale by its relative
/// size, C(u) = ((r-1)/(n-1)) * ((r-1)/sum_{v in comp} d(u,v)).
double closeness_centrality(const Graph& g, NodeId u);

/// Mean closeness over all alive nodes (exact; O(n·(n+m))).
double average_closeness_exact(const Graph& g);

/// Unbiased estimate of average closeness from `samples` uniformly chosen
/// source nodes (each sampled node's closeness is computed exactly).
/// Falls back to the exact mean when samples >= alive count.
double average_closeness_sampled(const Graph& g, std::size_t samples,
                                 Rng& rng);

/// Betweenness centrality per slot (Brandes' algorithm on unweighted
/// shortest paths), each unordered pair counted once; dead slots get 0.
/// O(n·(n+m)) — the exact fallback for small graphs and tests.
std::vector<double> betweenness_exact(const Graph& g);

/// Pivot-sampled betweenness: Brandes accumulation from `pivots`
/// uniformly chosen alive sources, contributions scaled by n/pivots
/// (unbiased). The top-decile ranking agrees with the exact computation
/// within tolerance (validated in the test suite), which is all the
/// centrality-takedown policies need. Falls back to the exact
/// computation when pivots >= alive count. Precondition: pivots > 0.
std::vector<double> betweenness_sampled(const Graph& g, std::size_t pivots,
                                        Rng& rng);

/// Degree centrality of u: deg(u)/(n-1), n = alive nodes.
double degree_centrality(const Graph& g, NodeId u);

/// Mean degree centrality over alive nodes.
double average_degree_centrality(const Graph& g);

/// Exact diameter of the largest component (0 for <=1 alive node).
/// O(n·(n+m)) — use for tests and small graphs.
std::size_t diameter_exact(const Graph& g);

/// Diameter lower-bound estimate by repeated double sweeps: BFS from a
/// random alive node, then BFS from the farthest node found; `sweeps`
/// restarts, maximum taken. Exact on trees; empirically exact on the
/// random regular graphs used here (validated in tests).
std::size_t diameter_double_sweep(const Graph& g, std::size_t sweeps,
                                  Rng& rng);

}  // namespace onion::graph

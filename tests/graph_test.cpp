// Graph substrate tests: structure operations, generators (parameterized
// over the paper's sizes/degrees), metrics validated on graphs with known
// closed-form values, and estimator-vs-exact property sweeps.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/metrics.hpp"
#include "graph/union_find.hpp"

namespace onion::graph {
namespace {

Graph path_graph(std::size_t n) {
  Graph g(n);
  for (NodeId u = 0; u + 1 < n; ++u) g.add_edge(u, u + 1);
  return g;
}

Graph cycle_graph(std::size_t n) {
  Graph g = path_graph(n);
  g.add_edge(static_cast<NodeId>(n - 1), 0);
  return g;
}

Graph complete_graph(std::size_t n) {
  Graph g(n);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) g.add_edge(u, v);
  return g;
}

TEST(Graph, StartsIsolated) {
  Graph g(5);
  EXPECT_EQ(g.num_alive(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (NodeId u = 0; u < 5; ++u) EXPECT_EQ(g.degree(u), 0u);
}

TEST(Graph, AddEdgeBasics) {
  Graph g(3);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.add_edge(0, 1)) << "duplicate rejected";
  EXPECT_FALSE(g.add_edge(1, 0)) << "reverse duplicate rejected";
  EXPECT_FALSE(g.add_edge(2, 2)) << "self loop rejected";
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Graph, RemoveEdge) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_TRUE(g.remove_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_FALSE(g.remove_edge(0, 1)) << "absent edge";
}

TEST(Graph, RemoveNodeDetachesEdges) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.remove_node(0);
  EXPECT_FALSE(g.alive(0));
  EXPECT_EQ(g.num_alive(), 3u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(2), 1u);
}

TEST(Graph, DeadNodeOperationsRejected) {
  Graph g(2);
  g.remove_node(0);
  EXPECT_THROW(g.degree(0), ContractViolation);
  EXPECT_THROW(g.add_edge(0, 1), ContractViolation);
  EXPECT_THROW(g.remove_node(0), ContractViolation);
}

TEST(Graph, AddNodeExtends) {
  Graph g(2);
  const NodeId u = g.add_node();
  EXPECT_EQ(u, 2u);
  EXPECT_TRUE(g.alive(u));
  EXPECT_TRUE(g.add_edge(u, 0));
  EXPECT_EQ(g.capacity(), 3u);
}

TEST(Graph, AliveNodesAndAverageDegree) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.remove_node(3);
  EXPECT_EQ(g.alive_nodes(), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_NEAR(g.average_degree(), 2.0 / 3.0, 1e-12);
}

#ifndef NDEBUG
TEST(Graph, AddEdgeUncheckedRejectsDuplicateInDebug) {
  // The duplicate scan is compiled out in Release (the whole point of the
  // unchecked path); Debug and sanitizer builds catch the misuse that
  // would otherwise silently corrupt num_edges().
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge_unchecked(0, 1), ContractViolation);
  EXPECT_EQ(g.num_edges(), 1u);
}
#endif

// Event log used by the observer tests: one entry per callback.
struct RecordingObserver final : MutationObserver {
  enum Kind {
    kNodeAdded,
    kNodeRemoved,
    kEdgeAdded,
    kEdgeRemoved
  };
  struct Event {
    Kind kind;
    NodeId u;
    NodeId v;  // kInvalidNode for node events
  };
  std::vector<Event> events;
  std::vector<std::size_t> degree_at_removal;  // degree(u) per edge removal

  const Graph* graph = nullptr;
  void on_node_added(NodeId u) override {
    events.push_back({kNodeAdded, u, kInvalidNode});
  }
  void on_node_removed(NodeId u) override {
    events.push_back({kNodeRemoved, u, kInvalidNode});
  }
  void on_edge_added(NodeId u, NodeId v) override {
    events.push_back({kEdgeAdded, u, v});
  }
  void on_edge_removed(NodeId u, NodeId v) override {
    events.push_back({kEdgeRemoved, u, v});
    if (graph != nullptr) degree_at_removal.push_back(graph->degree(u));
  }
};

TEST(GraphObserver, SeesEveryMutationAfterItApplied) {
  Graph g(2);
  RecordingObserver obs;
  g.set_observer(&obs);
  g.add_edge(0, 1);
  const NodeId fresh = g.add_node();
  g.add_edge(1, fresh);
  g.remove_edge(0, 1);
  ASSERT_EQ(obs.events.size(), 4u);
  EXPECT_EQ(obs.events[0].kind, RecordingObserver::kEdgeAdded);
  EXPECT_EQ(obs.events[1].kind, RecordingObserver::kNodeAdded);
  EXPECT_EQ(obs.events[1].u, fresh);
  EXPECT_EQ(obs.events[2].kind, RecordingObserver::kEdgeAdded);
  EXPECT_EQ(obs.events[3].kind, RecordingObserver::kEdgeRemoved);
  g.set_observer(nullptr);
  g.add_edge(0, 1);  // detached: no further events
  EXPECT_EQ(obs.events.size(), 4u);
}

TEST(GraphObserver, RemoveNodeDecomposesIntoEdgeRemovalsThenNodeRemoval) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  RecordingObserver obs;
  obs.graph = &g;
  g.set_observer(&obs);
  g.remove_node(0);
  ASSERT_EQ(obs.events.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(obs.events[i].kind, RecordingObserver::kEdgeRemoved);
    EXPECT_EQ(obs.events[i].u, 0u);
  }
  EXPECT_EQ(obs.events[3].kind, RecordingObserver::kNodeRemoved);
  EXPECT_EQ(obs.events[3].u, 0u);
  // Each callback saw the post-removal degree: 2, then 1, then 0 — the
  // graph is consistent *during* the decomposed removal.
  EXPECT_EQ(obs.degree_at_removal, (std::vector<std::size_t>{2, 1, 0}));
}

TEST(GraphObserver, SecondObserverRejectedUntilDetach) {
  Graph g(2);
  RecordingObserver first;
  RecordingObserver second;
  g.set_observer(&first);
  EXPECT_THROW(g.set_observer(&second), ContractViolation);
  g.set_observer(nullptr);
  g.set_observer(&second);
  g.add_edge(0, 1);
  EXPECT_TRUE(first.events.empty());
  EXPECT_EQ(second.events.size(), 1u);
}

TEST(GraphObserver, CopiesDropTheObserver) {
  Graph g(2);
  RecordingObserver obs;
  g.set_observer(&obs);
  Graph copy(g);
  EXPECT_EQ(copy.observer(), nullptr);
  copy.add_edge(0, 1);  // must not notify the original's observer
  EXPECT_TRUE(obs.events.empty());
  EXPECT_EQ(g.observer(), &obs);
}

TEST(GraphObserver, ObservedGraphsRefuseToMoveOrBeAssignedOver) {
  // An attached observer references the graph instance itself, so moving
  // an observed graph (or overwriting one) would leave the observer
  // notifying against a dangling or gutted object.
  Graph g(2);
  RecordingObserver obs;
  g.set_observer(&obs);
  EXPECT_THROW(Graph moved(std::move(g)), ContractViolation);
  Graph other(3);
  EXPECT_THROW(g = std::move(other), ContractViolation);
  EXPECT_THROW(g = other, ContractViolation);
  // Detached, both directions work again.
  g.set_observer(nullptr);
  g = std::move(other);
  EXPECT_EQ(g.capacity(), 3u);
}

TEST(GraphEpoch, CountsEveryMutation) {
  Graph g(3);
  EXPECT_EQ(g.mutation_epoch(), 0u);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_EQ(g.mutation_epoch(), 2u);
  g.add_edge(0, 1);  // duplicate: no mutation, no tick
  EXPECT_EQ(g.mutation_epoch(), 2u);
  g.add_node();
  EXPECT_EQ(g.mutation_epoch(), 3u);
  g.remove_edge(0, 1);
  EXPECT_EQ(g.mutation_epoch(), 4u);
  g.remove_node(1);  // one remaining edge + the node itself
  EXPECT_EQ(g.mutation_epoch(), 6u);
}

TEST(UnionFindTest, BasicMerging) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(1, 2));
  EXPECT_FALSE(uf.unite(0, 2)) << "already same set";
  EXPECT_EQ(uf.num_sets(), 3u);
  EXPECT_TRUE(uf.same(0, 2));
  EXPECT_FALSE(uf.same(0, 3));
  EXPECT_EQ(uf.set_size(1), 3u);
}

TEST(UnionFindTest, NumSetsCountsTheFullUniverseIncludingDeadSlots) {
  // num_sets() is universe-wide by contract: slots a caller considers
  // dead still count as singletons. Consumers over tombstoned tables
  // must subtract them or count by live members
  // (scenario::sweep_structural).
  UnionFind uf(6);
  uf.unite(0, 1);
  uf.unite(2, 3);
  // Pretend slots 4 and 5 are dead graph tombstones: they still count.
  EXPECT_EQ(uf.num_sets(), 4u);  // {0,1} {2,3} {4} {5}
  const std::size_t dead = 2;
  EXPECT_EQ(uf.num_sets() - dead, 2u);  // the live-component answer
}

TEST(Generators, RegularGraphHasExactDegrees) {
  Rng rng(20);
  const Graph g = random_regular(100, 6, rng);
  EXPECT_EQ(g.num_edges(), 300u);
  for (NodeId u = 0; u < 100; ++u) EXPECT_EQ(g.degree(u), 6u);
}

TEST(Generators, RegularRejectsBadParameters) {
  Rng rng(21);
  EXPECT_THROW(random_regular(5, 5, rng), std::invalid_argument);
  EXPECT_THROW(random_regular(5, 3, rng), std::invalid_argument);  // odd nk
}

struct RegularParams {
  std::size_t n;
  std::size_t k;
};

class RegularSweep : public ::testing::TestWithParam<RegularParams> {};

TEST_P(RegularSweep, ValidSimpleRegularAndConnected) {
  const auto [n, k] = GetParam();
  Rng rng(22 + n + k);
  const Graph g = random_regular(n, k, rng);
  // Simple: no self loops / duplicates (Graph enforces), exact degrees.
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_EQ(g.degree(u), k);
    for (const NodeId v : g.neighbors(u)) ASSERT_NE(v, u);
  }
  EXPECT_EQ(g.num_edges(), n * k / 2);
  // Random k-regular graphs with k >= 3 are connected w.h.p.
  if (k >= 3) {
    EXPECT_TRUE(is_connected(g));
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperSizes, RegularSweep,
    ::testing::Values(RegularParams{50, 4}, RegularParams{100, 5},
                      RegularParams{200, 10}, RegularParams{100, 15},
                      RegularParams{64, 3}, RegularParams{500, 10}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.k);
    });

// Oracle: the list-rebuilding generator the Fenwick-indexed repair
// replaced. After every successful clash repair it re-lists all edges,
// so each draw indexes a freshly materialized list — O(nk) per repair,
// but transparently the draw-order contract in generators.hpp.
bool legacy_try_regular(Graph& g, std::size_t n, std::size_t k, Rng& rng) {
  std::vector<NodeId> stubs;
  stubs.reserve(n * k);
  for (NodeId u = 0; u < n; ++u)
    for (std::size_t c = 0; c < k; ++c) stubs.push_back(u);
  rng.shuffle(stubs);

  std::vector<std::pair<NodeId, NodeId>> clashes;
  for (std::size_t i = 0; i < stubs.size(); i += 2) {
    const NodeId u = stubs[i], v = stubs[i + 1];
    if (u == v || g.has_edge(u, v)) {
      clashes.emplace_back(u, v);
    } else {
      g.add_edge(u, v);
    }
  }

  std::vector<std::pair<NodeId, NodeId>> edges;
  auto rebuild_edges = [&] {
    edges.clear();
    for (NodeId u = 0; u < n; ++u)
      for (const NodeId v : g.neighbors(u))
        if (u < v) edges.emplace_back(u, v);
  };
  rebuild_edges();

  for (const auto& [u, v] : clashes) {
    bool fixed = false;
    for (int attempt = 0; attempt < 200 && !fixed; ++attempt) {
      if (edges.empty()) break;
      auto [a, b] =
          edges[static_cast<std::size_t>(rng.uniform(edges.size()))];
      if (rng.bernoulli(0.5)) std::swap(a, b);
      if (a == u || a == v || b == u || b == v) continue;
      if (g.has_edge(u, a) || g.has_edge(v, b)) continue;
      g.remove_edge(a, b);
      g.add_edge(u, a);
      g.add_edge(v, b);
      rebuild_edges();
      fixed = true;
    }
    if (!fixed) return false;
  }
  return true;
}

Graph legacy_random_regular(std::size_t n, std::size_t k, Rng& rng) {
  if (k >= n) throw std::invalid_argument("random_regular: need k < n");
  if ((n * k) % 2 != 0)
    throw std::invalid_argument("random_regular: n*k must be even");
  for (int restart = 0; restart < 50; ++restart) {
    Graph g(n);
    if (legacy_try_regular(g, n, k, rng)) return g;
  }
  throw std::runtime_error("random_regular: generation failed repeatedly");
}

/// Runs a generator, folding "threw X" into the result so the two
/// implementations can be compared on failures as well as successes.
template <typename Generate>
std::pair<std::optional<Graph>, std::string> outcome(Generate generate) {
  try {
    return {generate(), ""};
  } catch (const std::invalid_argument&) {
    return {std::nullopt, "invalid_argument"};
  } catch (const std::runtime_error&) {
    return {std::nullopt, "runtime_error"};
  }
}

class GeneratorOracle : public ::testing::TestWithParam<RegularParams> {};

// n in {k+1, k+2, 64, 1000, 20000} x k in {3, 5, 10, 15}: small n forces
// clashes and restarts (n = k+1 admits only K_{k+1}); odd n*k must be
// rejected by both before touching the Rng.
std::vector<RegularParams> oracle_cells() {
  std::vector<RegularParams> cells;
  for (const std::size_t k : {3u, 5u, 10u, 15u})
    for (const std::size_t n : {k + 1, k + 2, std::size_t{64},
                                std::size_t{1000}, std::size_t{20000}})
      cells.push_back({n, k});
  return cells;
}

TEST_P(GeneratorOracle, FenwickRepairMatchesListRebuildDrawForDraw) {
  const auto [n, k] = GetParam();
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng fast_rng(seed * 7919 + n * 31 + k);
    Rng oracle_rng = fast_rng;
    const auto fast =
        outcome([&] { return random_regular(n, k, fast_rng); });
    const auto oracle =
        outcome([&] { return legacy_random_regular(n, k, oracle_rng); });
    ASSERT_EQ(fast.second, oracle.second) << "seed " << seed;
    // The caller's Rng must end in the same state: its next draw.
    ASSERT_EQ(fast_rng(), oracle_rng()) << "seed " << seed;
    if (!oracle.first) continue;
    const Graph& a = *fast.first;
    const Graph& b = *oracle.first;
    ASSERT_EQ(a.capacity(), b.capacity()) << "seed " << seed;
    ASSERT_EQ(a.num_edges(), b.num_edges()) << "seed " << seed;
    for (NodeId u = 0; u < n; ++u)
      ASSERT_EQ(a.neighbors(u), b.neighbors(u))
          << "seed " << seed << " u=" << u;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeneratorOracle, ::testing::ValuesIn(oracle_cells()),
    [](const auto& info) {
      std::string name = "n";
      name += std::to_string(info.param.n);
      name += "_k";
      name += std::to_string(info.param.k);
      return name;
    });

TEST(Generators, ErdosRenyiDensityMatches) {
  Rng rng(23);
  const Graph g = erdos_renyi(200, 0.1, rng);
  const double possible = 200.0 * 199.0 / 2.0;
  const double density = static_cast<double>(g.num_edges()) / possible;
  EXPECT_NEAR(density, 0.1, 0.02);
}

TEST(Generators, ErdosRenyiExtremes) {
  Rng rng(24);
  EXPECT_EQ(erdos_renyi(10, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(erdos_renyi(10, 1.0, rng).num_edges(), 45u);
}

TEST(Metrics, BfsDistancesOnPath) {
  const Graph g = path_graph(5);
  const auto d = bfs_distances(g, 0);
  for (NodeId u = 0; u < 5; ++u) EXPECT_EQ(d[u], u);
}

TEST(Metrics, BfsUnreachable) {
  Graph g(3);
  g.add_edge(0, 1);
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[2], kUnreachable);
}

TEST(Metrics, ComponentsCountsAndSizes) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  const Components c = connected_components(g);
  EXPECT_EQ(c.count, 3u);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(c.largest(), 3u);
  EXPECT_EQ(c.label[0], c.label[2]);
  EXPECT_NE(c.label[0], c.label[3]);
}

TEST(Metrics, ComponentsIgnoreDeadNodes) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.remove_node(2);
  const Components c = connected_components(g);
  EXPECT_EQ(c.count, 2u);  // {0,1}, {3}
}

TEST(Metrics, IsConnectedEdgeCases) {
  Graph g0(0);
  EXPECT_TRUE(is_connected(g0));
  Graph g1(1);
  EXPECT_TRUE(is_connected(g1));
  Graph g2(2);
  EXPECT_FALSE(is_connected(g2));
  g2.add_edge(0, 1);
  EXPECT_TRUE(is_connected(g2));
}

TEST(Metrics, ClosenessOnCompleteGraph) {
  // Complete graph: every distance 1, closeness = 1 for every node.
  const Graph g = complete_graph(6);
  for (NodeId u = 0; u < 6; ++u)
    EXPECT_NEAR(closeness_centrality(g, u), 1.0, 1e-12);
  EXPECT_NEAR(average_closeness_exact(g), 1.0, 1e-12);
}

TEST(Metrics, ClosenessOnStarGraph) {
  // Star K_{1,4}: center closeness 1; leaf: (n-1)/sum = 4/(1+2+2+2)=4/7.
  Graph g(5);
  for (NodeId leaf = 1; leaf < 5; ++leaf) g.add_edge(0, leaf);
  EXPECT_NEAR(closeness_centrality(g, 0), 1.0, 1e-12);
  EXPECT_NEAR(closeness_centrality(g, 1), 4.0 / 7.0, 1e-12);
}

TEST(Metrics, ClosenessOnPathEnd) {
  // Path of 4: end node distances 1+2+3=6 -> closeness 3/6 = 0.5.
  const Graph g = path_graph(4);
  EXPECT_NEAR(closeness_centrality(g, 0), 0.5, 1e-12);
}

TEST(Metrics, ClosenessDisconnectedUsesNetworkXCorrection) {
  // Two disjoint edges in n=4: r=1 reachable, d=1.
  // C = (r/(n-1)) * (r/dist) = (1/3)*(1/1) = 1/3.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_NEAR(closeness_centrality(g, 0), 1.0 / 3.0, 1e-12);
}

TEST(Metrics, ClosenessSampledMatchesExactWhenSamplingAll) {
  Rng rng(25);
  const Graph g = random_regular(60, 4, rng);
  Rng sample_rng(26);
  EXPECT_NEAR(average_closeness_sampled(g, 60, sample_rng),
              average_closeness_exact(g), 1e-12);
}

TEST(Metrics, ClosenessSampledApproximatesExact) {
  Rng rng(27);
  const Graph g = random_regular(300, 6, rng);
  const double exact = average_closeness_exact(g);
  Rng sample_rng(28);
  const double approx = average_closeness_sampled(g, 100, sample_rng);
  EXPECT_NEAR(approx, exact, 0.05 * exact + 1e-9);
}

TEST(Metrics, DegreeCentrality) {
  const Graph g = complete_graph(5);
  for (NodeId u = 0; u < 5; ++u)
    EXPECT_NEAR(degree_centrality(g, u), 1.0, 1e-12);
  Graph star(5);
  for (NodeId leaf = 1; leaf < 5; ++leaf) star.add_edge(0, leaf);
  EXPECT_NEAR(degree_centrality(star, 0), 1.0, 1e-12);
  EXPECT_NEAR(degree_centrality(star, 1), 0.25, 1e-12);
  EXPECT_NEAR(average_degree_centrality(star), (1.0 + 4 * 0.25) / 5.0,
              1e-12);
}

TEST(Metrics, DiameterExactKnownGraphs) {
  EXPECT_EQ(diameter_exact(path_graph(6)), 5u);
  EXPECT_EQ(diameter_exact(cycle_graph(8)), 4u);
  EXPECT_EQ(diameter_exact(complete_graph(7)), 1u);
}

TEST(Metrics, DiameterOfLargestComponent) {
  Graph g(7);
  // Component A: path 0-1-2-3 (diameter 3). Component B: edge 4-5.
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(4, 5);
  EXPECT_EQ(diameter_exact(g), 3u);
}

class DiameterSweep
    : public ::testing::TestWithParam<RegularParams> {};

TEST_P(DiameterSweep, DoubleSweepMatchesExact) {
  const auto [n, k] = GetParam();
  Rng rng(29 + n * k);
  const Graph g = random_regular(n, k, rng);
  Rng sweep_rng(30);
  const std::size_t estimate = diameter_double_sweep(g, 8, sweep_rng);
  EXPECT_EQ(estimate, diameter_exact(g));
}

INSTANTIATE_TEST_SUITE_P(
    RandomRegular, DiameterSweep,
    ::testing::Values(RegularParams{60, 3}, RegularParams{100, 4},
                      RegularParams{150, 5}, RegularParams{200, 10}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.k);
    });

TEST(Metrics, DiameterDoubleSweepNeverExceedsExact) {
  // Double sweep is a lower bound by construction.
  Rng rng(31);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = erdos_renyi(80, 0.06, rng);
    if (g.num_alive() == 0) continue;
    Rng sweep_rng(32 + trial);
    EXPECT_LE(diameter_double_sweep(g, 4, sweep_rng), diameter_exact(g));
  }
}

}  // namespace
}  // namespace onion::graph

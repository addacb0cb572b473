// DDSR self-healing graph tests: the Figure 3 walkthrough, repair/prune/
// refill invariants, and parameterized property sweeps over the paper's
// degrees with and without pruning, plus the shared highest-degree
// eviction choice.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/ddsr.hpp"
#include "core/eviction.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"

namespace onion::core {
namespace {

using graph::Graph;
using graph::NodeId;

TEST(Ddsr, RepairFormsCliqueOverFormerNeighbors) {
  // Star: delete the hub; the paper's rule connects every pair of its
  // neighbors.
  Graph g(5);
  for (NodeId leaf = 1; leaf < 5; ++leaf) g.add_edge(0, leaf);
  Rng rng(1);
  DdsrEngine engine(g, DdsrPolicy{.dmin = 1, .dmax = 10}, rng);
  engine.remove_node(0);
  for (NodeId a = 1; a < 5; ++a)
    for (NodeId b = a + 1; b < 5; ++b)
      EXPECT_TRUE(g.has_edge(a, b)) << a << "," << b;
  EXPECT_EQ(engine.stats().repair_edges_added, 6u);
}

TEST(Ddsr, RepairSkipsExistingEdges) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);  // the pair is already connected
  Rng rng(2);
  DdsrEngine engine(g, DdsrPolicy{.dmin = 1, .dmax = 10}, rng);
  engine.remove_node(0);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_EQ(engine.stats().repair_edges_added, 0u);
}

TEST(Ddsr, Figure3Walkthrough) {
  // The paper's Figure 3: a 3-regular graph with 12 nodes; removing node
  // 7 (neighbors 0, 1, 4) creates edges (0,1), (0,4), (1,4) minus any
  // that already exist. We build the neighborhood explicitly.
  Graph g(12);
  // Node 7's neighbors are 0, 1, 4 as in the figure.
  g.add_edge(7, 0);
  g.add_edge(7, 1);
  g.add_edge(7, 4);
  // Some unrelated structure.
  g.add_edge(0, 5);
  g.add_edge(1, 2);
  g.add_edge(4, 6);
  Rng rng(3);
  DdsrEngine engine(g, DdsrPolicy{.dmin = 1, .dmax = 5}, rng);
  engine.remove_node(7);
  EXPECT_FALSE(g.alive(7));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 4));
  EXPECT_TRUE(g.has_edge(1, 4));
}

TEST(Ddsr, NoRepairBaselineJustRemoves) {
  Graph g(5);
  for (NodeId leaf = 1; leaf < 5; ++leaf) g.add_edge(0, leaf);
  Rng rng(4);
  DdsrEngine engine(g, DdsrPolicy{}, rng);
  engine.remove_node_no_repair(0);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(engine.stats().repair_edges_added, 0u);
  EXPECT_EQ(engine.stats().nodes_removed, 1u);
}

TEST(Ddsr, PruningCapsDegreeAtDmax) {
  Rng rng(5);
  Graph g = graph::random_regular(60, 8, rng);
  DdsrEngine engine(g, DdsrPolicy{.dmin = 8, .dmax = 8, .prune = true},
                    rng);
  for (int i = 0; i < 18; ++i) {
    const auto alive = g.alive_nodes();
    engine.remove_node(alive[rng.uniform(alive.size())]);
    for (const NodeId u : g.alive_nodes())
      ASSERT_LE(g.degree(u), 8u) << "after deletion " << i;
  }
  EXPECT_GT(engine.stats().prune_edges_removed, 0u);
}

TEST(Ddsr, WithoutPruningDegreesGrow) {
  Rng rng(6);
  Graph g = graph::random_regular(60, 8, rng);
  DdsrEngine engine(
      g, DdsrPolicy{.dmin = 8, .dmax = 8, .prune = false, .refill = false},
      rng);
  for (int i = 0; i < 18; ++i) {
    const auto alive = g.alive_nodes();
    engine.remove_node(alive[rng.uniform(alive.size())]);
  }
  std::size_t max_degree = 0;
  for (const NodeId u : g.alive_nodes())
    max_degree = std::max(max_degree, g.degree(u));
  EXPECT_GT(max_degree, 8u);
  EXPECT_EQ(engine.stats().prune_edges_removed, 0u);
}

TEST(Ddsr, RefillRestoresDmin) {
  // A node whose only neighbor dies and whose repair partner set is
  // empty must pull new peers from its NoN.
  Rng rng(7);
  Graph g = graph::random_regular(40, 5, rng);
  DdsrEngine engine(
      g, DdsrPolicy{.dmin = 5, .dmax = 5, .prune = true, .refill = true},
      rng);
  for (int i = 0; i < 12; ++i) {
    const auto alive = g.alive_nodes();
    engine.remove_node(alive[rng.uniform(alive.size())]);
  }
  // All surviving nodes should sit at dmin (enough nodes remain).
  for (const NodeId u : g.alive_nodes())
    EXPECT_EQ(g.degree(u), 5u);
}

TEST(Ddsr, VictimPolicyHighestDegreeTargetsHubs) {
  // One hub with degree 4, others low; pruning a node over dmax must
  // evict the hub first under the paper's policy.
  Graph g(7);
  // node 0: neighbors 1..4 (will exceed dmax=3 after repair).
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  // hub 5 connected everywhere.
  g.add_edge(5, 0);
  g.add_edge(5, 1);
  g.add_edge(5, 2);
  g.add_edge(5, 6);
  // deleting 6 forces 0's degree up via repair with 5's partners? keep
  // it direct: bump 0 over the cap by hand and prune.
  g.add_edge(0, 4);  // degree(0) = 5 now (1,2,3,5,4)
  Rng rng(8);
  DdsrEngine engine(
      g, DdsrPolicy{.dmin = 2, .dmax = 3, .prune = true, .refill = false},
      rng);
  // Removing node 4 (leaf) triggers prune on 0 (degree 4 > 3).
  engine.remove_node(4);
  EXPECT_LE(g.degree(0), 3u);
  EXPECT_FALSE(g.has_edge(0, 5)) << "hub (highest degree) evicted first";
}

struct SweepParams {
  std::size_t n;
  std::size_t k;
  bool prune;
};

class DdsrSweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(DdsrSweep, SurvivesThirtyPercentDeletions) {
  const auto [n, k, prune] = GetParam();
  Rng rng(100 + n + k + (prune ? 1 : 0));
  Graph g = graph::random_regular(n, k, rng);
  DdsrEngine engine(
      g, DdsrPolicy{.dmin = k, .dmax = k, .prune = prune, .refill = true},
      rng);
  const std::size_t deletions = n * 3 / 10;
  for (std::size_t i = 0; i < deletions; ++i) {
    const auto alive = g.alive_nodes();
    engine.remove_node(alive[rng.uniform(alive.size())]);
  }
  // The paper's headline property: the self-healing overlay stays
  // connected through a 30% gradual takedown.
  EXPECT_TRUE(graph::is_connected(g));
  if (prune) {
    for (const NodeId u : g.alive_nodes()) EXPECT_LE(g.degree(u), k);
  }
  // No self loops / duplicate edges can exist (Graph enforces); verify
  // the counters add up.
  EXPECT_EQ(engine.stats().nodes_removed, deletions);
}

INSTANTIATE_TEST_SUITE_P(
    PaperDegrees, DdsrSweep,
    ::testing::Values(SweepParams{200, 5, true}, SweepParams{200, 5, false},
                      SweepParams{200, 10, true},
                      SweepParams{200, 10, false},
                      SweepParams{150, 15, true},
                      SweepParams{150, 15, false},
                      SweepParams{400, 10, true}),
    [](const auto& info) {
      std::string name = "n";
      name += std::to_string(info.param.n);
      name += "_k";
      name += std::to_string(info.param.k);
      name += info.param.prune ? "_prune" : "_noprune";
      return name;
    });

TEST(Ddsr, HeavyDeletionsKeepLargestComponentDominant) {
  // Push to 90% deletions (paper: self-repair holds "even up to 90%
  // node deletions").
  Rng rng(9);
  Graph g = graph::random_regular(300, 10, rng);
  DdsrEngine engine(
      g, DdsrPolicy{.dmin = 10, .dmax = 10, .prune = true, .refill = true},
      rng);
  for (int i = 0; i < 270; ++i) {
    const auto alive = g.alive_nodes();
    engine.remove_node(alive[rng.uniform(alive.size())]);
  }
  EXPECT_EQ(g.num_alive(), 30u);
  const auto comps = graph::connected_components(g);
  EXPECT_GE(comps.largest(), g.num_alive() - 2)
      << "overlay must not shatter";
}

TEST(Ddsr, DiameterShrinksAsNetworkShrinks) {
  Rng rng(10);
  Graph g = graph::random_regular(300, 10, rng);
  DdsrEngine engine(
      g, DdsrPolicy{.dmin = 10, .dmax = 10, .prune = true, .refill = true},
      rng);
  Rng mrng(11);
  const std::size_t d0 = graph::diameter_double_sweep(g, 6, mrng);
  for (int i = 0; i < 200; ++i) {
    const auto alive = g.alive_nodes();
    engine.remove_node(alive[rng.uniform(alive.size())]);
  }
  const std::size_t d1 = graph::diameter_double_sweep(g, 6, mrng);
  EXPECT_LE(d1, d0) << "Figure 5e/5f: diameter non-increasing under DDSR";
}

TEST(Ddsr, AblationRandomMatchRepairAddsFewerEdges) {
  Rng rng(12);
  Graph g1 = graph::random_regular(100, 6, rng);
  Graph g2 = g1;  // identical copies
  Rng r1(13), r2(13);
  DdsrEngine full(g1,
                  DdsrPolicy{.dmin = 6,
                             .dmax = 20,
                             .prune = false,
                             .refill = false,
                             .repair = DdsrPolicy::Repair::PairwiseFull},
                  r1);
  DdsrEngine match(g2,
                   DdsrPolicy{.dmin = 6,
                              .dmax = 20,
                              .prune = false,
                              .refill = false,
                              .repair = DdsrPolicy::Repair::RandomMatch},
                   r2);
  for (NodeId u = 0; u < 20; ++u) {
    full.remove_node(u);
    match.remove_node(u);
  }
  EXPECT_GT(full.stats().repair_edges_added,
            match.stats().repair_edges_added);
}

TEST(Ddsr, AblationRandomVictimStillCapsDegree) {
  Rng rng(14);
  Graph g = graph::random_regular(80, 8, rng);
  DdsrEngine engine(g,
                    DdsrPolicy{.dmin = 8,
                               .dmax = 8,
                               .prune = true,
                               .refill = true,
                               .victim = DdsrPolicy::Victim::Random},
                    rng);
  for (int i = 0; i < 24; ++i) {
    const auto alive = g.alive_nodes();
    engine.remove_node(alive[rng.uniform(alive.size())]);
  }
  for (const NodeId u : g.alive_nodes()) EXPECT_LE(g.degree(u), 8u);
}

// --- core::highest_degree_peer -------------------------------------

std::size_t identity(std::size_t d) { return d; }

// True iff `a` and `b` are at the same point of their streams.
bool same_stream(Rng a, Rng b) { return a.next_u64() == b.next_u64(); }

TEST(HighestDegreePeer, EmptyRangeReturnsEnd) {
  Rng rng(1);
  const Rng untouched = rng;
  const std::vector<std::size_t> none;
  const auto pick = highest_degree_peer(none, identity, rng);
  EXPECT_EQ(pick.peer, none.end());
  EXPECT_EQ(pick.degree, 0u);
  EXPECT_TRUE(same_stream(rng, untouched));
}

TEST(HighestDegreePeer, LonePeerOrUntiedMaximumCostsNoDraw) {
  Rng rng(2);
  const Rng untouched = rng;
  const std::vector<std::size_t> lone{7};
  EXPECT_EQ(highest_degree_peer(lone, identity, rng).peer, lone.begin());
  const std::vector<std::size_t> untied{9, 3, 5, 1};
  const auto pick = highest_degree_peer(untied, identity, rng);
  EXPECT_EQ(pick.peer, untied.begin());
  EXPECT_EQ(pick.degree, 9u);
  EXPECT_TRUE(same_stream(rng, untouched));
}

TEST(HighestDegreePeer, KTiedPeersCostKMinusOneDrawsAndSplitEvenly) {
  // Two lower peers around four tied at 6: the draws are exactly the
  // reservoir's uniform(2), uniform(3), uniform(4).
  const std::vector<std::size_t> peers{2, 6, 6, 1, 6, 6};
  constexpr int kTrials = 40000;
  std::map<std::ptrdiff_t, int> chosen;
  Rng rng(3);
  for (int t = 0; t < kTrials; ++t) {
    Rng expected = rng;
    for (std::uint64_t bound = 2; bound <= 4; ++bound) expected.uniform(bound);
    const auto pick = highest_degree_peer(peers, identity, rng);
    ASSERT_EQ(pick.degree, 6u);
    ASSERT_TRUE(same_stream(rng, expected));
    ++chosen[pick.peer - peers.begin()];
  }
  ASSERT_EQ(chosen.size(), 4u);
  for (const auto& [index, count] : chosen) {
    EXPECT_EQ(peers[static_cast<std::size_t>(index)], 6u);
    EXPECT_NEAR(count, kTrials / 4, kTrials / 40) << "peer " << index;
  }
}

TEST(HighestDegreePeer, RanksAMapThroughAProjection) {
  const std::map<std::string, int> table{{"a", 3}, {"b", 8}, {"c", 5}};
  Rng rng(4);
  const auto pick = highest_degree_peer(
      table,
      [](const auto& entry) { return static_cast<std::size_t>(entry.second); },
      rng);
  ASSERT_NE(pick.peer, table.end());
  EXPECT_EQ(pick.peer->first, "b");
  EXPECT_EQ(pick.degree, 8u);
}

TEST(HighestDegreePeer, AllZeroDegreesStillYieldAPeer) {
  // A rallying bot declares degree 0 and must stay prunable.
  const std::vector<std::size_t> zeros{0, 0, 0};
  Rng rng(5);
  const auto pick = highest_degree_peer(zeros, identity, rng);
  ASSERT_NE(pick.peer, zeros.end());
  EXPECT_EQ(pick.degree, 0u);
}

}  // namespace
}  // namespace onion::core

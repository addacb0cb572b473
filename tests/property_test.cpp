// Property-based and parameterized sweeps over the substrates:
// DDSR maintenance invariants across the whole policy matrix, graph
// metrics checked against brute-force recomputation, generator
// contracts, and uniform-encoding round trips. Each TEST_P instance is
// one point of a sweep the unit tests cannot cover one by one.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/ddsr.hpp"
#include "crypto/elligator_sim.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "scenario/session.hpp"

namespace onion {
namespace {

using core::DdsrEngine;
using core::DdsrPolicy;
using graph::Graph;
using graph::NodeId;

// ====================================================================
// DDSR invariant sweep: n x k x prune x victim x repair
// ====================================================================

struct DdsrCase {
  std::size_t n;
  std::size_t k;
  bool prune;
  DdsrPolicy::Victim victim;
  DdsrPolicy::Repair repair;
};

std::string case_name(const ::testing::TestParamInfo<DdsrCase>& info) {
  const DdsrCase& c = info.param;
  std::string out = "n";
  out += std::to_string(c.n);
  out += "k";
  out += std::to_string(c.k);
  out += c.prune ? "_prune" : "_noprune";
  out += c.victim == DdsrPolicy::Victim::HighestDegree ? "_hideg" : "_rand";
  out +=
      c.repair == DdsrPolicy::Repair::PairwiseFull ? "_full" : "_match";
  return out;
}

class DdsrSweep : public ::testing::TestWithParam<DdsrCase> {};

TEST_P(DdsrSweep, MaintenanceInvariantsHoldUnderChurn) {
  const DdsrCase c = GetParam();
  Rng rng(0xddd + c.n * 7 + c.k);
  Graph g = graph::random_regular(c.n, c.k, rng);
  DdsrPolicy policy;
  policy.dmin = c.k;
  policy.dmax = c.k;
  policy.prune = c.prune;
  policy.refill = true;
  policy.victim = c.victim;
  policy.repair = c.repair;
  DdsrEngine engine(g, policy, rng);

  const std::size_t deletions = c.n * 3 / 10;  // the paper's 30%
  for (std::size_t i = 0; i < deletions; ++i) {
    const auto alive = g.alive_nodes();
    engine.remove_node(
        alive[static_cast<std::size_t>(rng.uniform(alive.size()))]);

    // Invariant 1: adjacency only references alive nodes.
    if (i % 16 == 0) {
      for (const NodeId u : g.alive_nodes())
        for (const NodeId v : g.neighbors(u))
          ASSERT_TRUE(g.alive(v)) << "edge to tombstoned node";
    }
  }

  // Invariant 2: with pruning, every degree is within [0, dmax].
  if (c.prune) {
    for (const NodeId u : g.alive_nodes())
      EXPECT_LE(g.degree(u), policy.dmax);
  }

  // Invariant 3: counters match reality. Every edge in the graph was
  // accounted for by generation, repair, or refill minus removals.
  const auto& stats = engine.stats();
  const std::size_t expected_initial = c.n * c.k / 2;
  // Edges removed by node deletion are not individually counted, so
  // only a weaker consistency check is possible: additions recorded
  // must be at least (current - initial).
  EXPECT_GE(expected_initial + stats.repair_edges_added +
                stats.refill_edges_added,
            g.num_edges());
  EXPECT_EQ(stats.nodes_removed, deletions);

  // Invariant 4: self-healing holds the surviving graph together (the
  // paper's headline for gradual takedown at 30%).
  EXPECT_TRUE(graph::is_connected(g))
      << "self-healing lost connectivity at 30% deletions";
}

INSTANTIATE_TEST_SUITE_P(
    PolicyMatrix, DdsrSweep,
    ::testing::Values(
        DdsrCase{60, 4, true, DdsrPolicy::Victim::HighestDegree,
                 DdsrPolicy::Repair::PairwiseFull},
        DdsrCase{60, 4, false, DdsrPolicy::Victim::HighestDegree,
                 DdsrPolicy::Repair::PairwiseFull},
        DdsrCase{100, 6, true, DdsrPolicy::Victim::HighestDegree,
                 DdsrPolicy::Repair::PairwiseFull},
        DdsrCase{100, 6, true, DdsrPolicy::Victim::Random,
                 DdsrPolicy::Repair::PairwiseFull},
        DdsrCase{100, 6, true, DdsrPolicy::Victim::HighestDegree,
                 DdsrPolicy::Repair::RandomMatch},
        DdsrCase{200, 10, true, DdsrPolicy::Victim::HighestDegree,
                 DdsrPolicy::Repair::PairwiseFull},
        DdsrCase{200, 10, false, DdsrPolicy::Victim::Random,
                 DdsrPolicy::Repair::RandomMatch},
        DdsrCase{200, 5, true, DdsrPolicy::Victim::HighestDegree,
                 DdsrPolicy::Repair::PairwiseFull}),
    case_name);

// ====================================================================
// Graph metric properties vs brute force
// ====================================================================

class MetricSweep : public ::testing::TestWithParam<std::uint64_t> {};

// All-pairs shortest paths by repeated BFS; the reference.
std::vector<std::vector<std::uint32_t>> apsp(const Graph& g) {
  std::vector<std::vector<std::uint32_t>> d;
  for (NodeId u = 0; u < g.capacity(); ++u) {
    if (g.alive(u))
      d.push_back(graph::bfs_distances(g, u));
    else
      d.emplace_back();
  }
  return d;
}

TEST_P(MetricSweep, DiameterMatchesBruteForce) {
  Rng rng(GetParam());
  Graph g = graph::erdos_renyi(40, 0.12, rng);
  const auto d = apsp(g);
  // Brute-force diameter of the largest component.
  const auto comps = graph::connected_components(g);
  std::uint32_t target = 0;
  std::size_t best_size = 0;
  for (std::uint32_t c = 0; c < comps.count; ++c)
    if (comps.sizes[c] > best_size) {
      best_size = comps.sizes[c];
      target = c;
    }
  std::uint32_t want = 0;
  for (NodeId u = 0; u < g.capacity(); ++u) {
    if (!g.alive(u) || comps.label[u] != target) continue;
    for (NodeId v = 0; v < g.capacity(); ++v) {
      if (!g.alive(v) || comps.label[v] != target) continue;
      if (d[u][v] != graph::kUnreachable) want = std::max(want, d[u][v]);
    }
  }
  EXPECT_EQ(graph::diameter_exact(g), want);
  // Double sweep lower-bounds the exact diameter and often equals it.
  Rng sweep_rng(GetParam() ^ 0xabc);
  const std::size_t estimate = graph::diameter_double_sweep(g, 4, sweep_rng);
  EXPECT_LE(estimate, want);
  EXPECT_GE(estimate + 2, want) << "double sweep is a tight estimator";
}

TEST_P(MetricSweep, SampledClosenessTracksExact) {
  Rng rng(GetParam() ^ 0x77);
  Graph g = graph::random_regular(60, 6, rng);
  const double exact = graph::average_closeness_exact(g);
  Rng sample_rng(GetParam() ^ 0x99);
  const double sampled =
      graph::average_closeness_sampled(g, 30, sample_rng);
  EXPECT_NEAR(sampled, exact, exact * 0.15);
}

TEST_P(MetricSweep, RegularGeneratorContract) {
  Rng rng(GetParam() ^ 0x1234);
  const std::size_t n = 30 + 2 * (GetParam() % 10);
  const std::size_t k = 3 + GetParam() % 4;
  if ((n * k) % 2 != 0) return;  // parity-infeasible combination
  Graph g = graph::random_regular(n, k, rng);
  for (const NodeId u : g.alive_nodes()) {
    EXPECT_EQ(g.degree(u), k);
    for (const NodeId v : g.neighbors(u)) {
      EXPECT_NE(u, v) << "no self loops";
      EXPECT_TRUE(g.has_edge(v, u)) << "undirected symmetry";
    }
  }
  EXPECT_EQ(g.num_edges(), n * k / 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

// ====================================================================
// Graph invariants under randomized add/delete/add_node interleavings
// ====================================================================

class GraphOpsSweep : public ::testing::TestWithParam<std::uint64_t> {};

// Full structural audit: simple graph (no self-loops, no parallel
// edges), symmetric adjacency over alive endpoints only, degree sum
// equals twice the edge counter, and tombstones stay dead.
void audit_graph(const Graph& g, const std::vector<NodeId>& tombstones) {
  std::size_t degree_sum = 0;
  for (const NodeId u : g.alive_nodes()) {
    std::vector<NodeId> nb = g.neighbors(u);
    degree_sum += nb.size();
    std::sort(nb.begin(), nb.end());
    ASSERT_TRUE(std::adjacent_find(nb.begin(), nb.end()) == nb.end())
        << "parallel edge at node " << u;
    for (const NodeId v : nb) {
      ASSERT_NE(u, v) << "self loop at node " << u;
      ASSERT_TRUE(g.alive(v)) << "edge to tombstoned node " << v;
      ASSERT_TRUE(g.has_edge(v, u)) << "asymmetric edge " << u << "," << v;
    }
  }
  ASSERT_EQ(degree_sum, 2 * g.num_edges());
  for (const NodeId d : tombstones)
    ASSERT_FALSE(g.alive(d)) << "tombstone " << d << " resurrected";
}

TEST_P(GraphOpsSweep, InvariantsHoldUnderRandomInterleavings) {
  Rng rng(0x9a9a + GetParam());
  Graph g(20);
  std::vector<NodeId> tombstones;
  std::size_t last_capacity = g.capacity();
  for (int step = 0; step < 600; ++step) {
    const auto alive = g.alive_nodes();
    const std::uint64_t op = rng.uniform(100);
    if (op < 40 && alive.size() >= 2) {
      // add_edge: must reject self loops and duplicates, else succeed.
      const NodeId u = rng.pick(alive);
      const NodeId v = rng.pick(alive);
      const bool duplicate = u != v && g.has_edge(u, v);
      const bool added = g.add_edge(u, v);
      EXPECT_EQ(added, u != v && !duplicate);
    } else if (op < 60 && !alive.empty()) {
      // remove_edge of a random incident edge (or a no-op miss).
      const NodeId u = rng.pick(alive);
      if (g.degree(u) > 0) {
        const auto& nb = g.neighbors(u);
        const NodeId v =
            nb[static_cast<std::size_t>(rng.uniform(nb.size()))];
        EXPECT_TRUE(g.remove_edge(u, v));
        EXPECT_FALSE(g.has_edge(u, v));
      }
    } else if (op < 80) {
      const NodeId id = g.add_node();
      EXPECT_TRUE(g.alive(id));
      EXPECT_EQ(g.degree(id), 0u);
    } else if (alive.size() > 1) {
      const NodeId victim = rng.pick(alive);
      g.remove_node(victim);
      tombstones.push_back(victim);
    }
    // capacity() is monotone: slots are never reused or reclaimed.
    EXPECT_GE(g.capacity(), last_capacity);
    last_capacity = g.capacity();
    if (step % 100 == 0) audit_graph(g, tombstones);
  }
  audit_graph(g, tombstones);
  EXPECT_EQ(g.capacity(), g.num_alive() + tombstones.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphOpsSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

// ====================================================================
// Betweenness: exact vs hand-computed values, sampled vs exact ranking
// ====================================================================

TEST(Betweenness, ExactMatchesHandComputedPathAndStar) {
  // Path 0-1-2-3: interior nodes each lie on 2 of the 6 pairs.
  Graph path(4);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  path.add_edge(2, 3);
  const auto bc_path = graph::betweenness_exact(path);
  EXPECT_DOUBLE_EQ(bc_path[0], 0.0);
  EXPECT_DOUBLE_EQ(bc_path[1], 2.0);
  EXPECT_DOUBLE_EQ(bc_path[2], 2.0);
  EXPECT_DOUBLE_EQ(bc_path[3], 0.0);

  // Star: the hub lies on every leaf-to-leaf pair (3 of them).
  Graph star(4);
  star.add_edge(0, 1);
  star.add_edge(0, 2);
  star.add_edge(0, 3);
  const auto bc_star = graph::betweenness_exact(star);
  EXPECT_DOUBLE_EQ(bc_star[0], 3.0);
  EXPECT_DOUBLE_EQ(bc_star[1], 0.0);

  // Dead slots stay at zero.
  star.remove_node(3);
  const auto bc_after = graph::betweenness_exact(star);
  EXPECT_DOUBLE_EQ(bc_after[0], 1.0);
  EXPECT_DOUBLE_EQ(bc_after[3], 0.0);
}

class BetweennessSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BetweennessSweep, SampledAgreesWithExactOnTheTopDecile) {
  // Sparse G(n, p): heterogeneous enough that betweenness has a real
  // ranking (a k-regular graph's is nearly flat).
  Rng rng(0xbc + GetParam());
  Graph g = graph::erdos_renyi(200, 0.03, rng);
  const auto exact = graph::betweenness_exact(g);
  Rng pivot_rng(0xb0 + GetParam());
  const auto sampled = graph::betweenness_sampled(g, 64, pivot_rng);

  // Top decile of alive nodes by exact score vs by sampled score.
  auto top_decile = [&](const std::vector<double>& score) {
    std::vector<NodeId> nodes = g.alive_nodes();
    std::sort(nodes.begin(), nodes.end(), [&](NodeId a, NodeId b) {
      if (score[a] != score[b]) return score[a] > score[b];
      return a < b;
    });
    nodes.resize(nodes.size() / 10);
    return nodes;
  };
  const auto want = top_decile(exact);
  const auto got = top_decile(sampled);
  std::size_t hits = 0;
  for (const NodeId u : got)
    if (std::find(want.begin(), want.end(), u) != want.end()) ++hits;
  EXPECT_GE(hits * 2, want.size())
      << "sampled top decile overlaps exact by only " << hits << "/"
      << want.size();

  // The estimator is unbiased: total mass agrees within 25%.
  double exact_sum = 0.0, sampled_sum = 0.0;
  for (const NodeId u : g.alive_nodes()) {
    exact_sum += exact[u];
    sampled_sum += sampled[u];
  }
  EXPECT_NEAR(sampled_sum, exact_sum, exact_sum * 0.25);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BetweennessSweep,
                         ::testing::Range<std::uint64_t>(1, 11));

// ====================================================================
// Batch-deletion partition index vs brute-force replay
// ====================================================================

class PartitionSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionSweep, ReverseUnionFindMatchesBruteForce) {
  Rng rng(0x6f6 + GetParam());
  Graph pristine = graph::erdos_renyi(60, 0.08, rng);
  std::vector<NodeId> order = pristine.alive_nodes();
  rng.shuffle(order);

  // Brute force: replay the deletions, BFS connectivity after each.
  std::size_t want = order.size();
  Graph replay = pristine;
  for (std::size_t i = 0; i < order.size(); ++i) {
    replay.remove_node(order[i]);
    if (replay.num_alive() >= 2 && !graph::is_connected(replay)) {
      want = i + 1;
      break;
    }
  }
  EXPECT_EQ(graph::first_partition_index(pristine, order), want);
}

TEST(PartitionIndex, EmptyOrderAndRobustGraphEdgeCases) {
  Rng rng(0x1dea);
  Graph g(12);  // complete K12
  for (NodeId u = 0; u < 12; ++u)
    for (NodeId v = u + 1; v < 12; ++v) g.add_edge(u, v);
  EXPECT_EQ(graph::first_partition_index(g, {}), 0u);
  // A complete graph never partitions: every prefix leaves a clique.
  std::vector<NodeId> order = g.alive_nodes();
  rng.shuffle(order);
  EXPECT_EQ(graph::first_partition_index(g, order), order.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

// ====================================================================
// Uniform-encoding properties
// ====================================================================

class EncodingSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EncodingSweep, RoundTripsAtEverySize) {
  Rng rng(0xe11e + GetParam());
  Bytes key(32);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
  Bytes plaintext(GetParam());
  for (auto& b : plaintext) b = static_cast<std::uint8_t>(rng.next_u64());

  const Bytes cell = crypto::uniform_encode(key, plaintext, rng);
  EXPECT_EQ(cell.size(), crypto::kUniformCellSize);
  const auto back = crypto::uniform_decode(key, cell);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, plaintext);
}

TEST_P(EncodingSweep, EveryBytePositionIsAuthenticated) {
  Rng rng(0xbadd + GetParam());
  const Bytes key = to_bytes("sweep-key");
  Bytes plaintext(GetParam());
  for (auto& b : plaintext) b = static_cast<std::uint8_t>(rng.next_u64());
  const Bytes cell = crypto::uniform_encode(key, plaintext, rng);
  // Flip a pseudorandom position per instance; over the sweep this
  // covers nonce, ciphertext, and tag regions.
  for (int trial = 0; trial < 8; ++trial) {
    Bytes bad = cell;
    const std::size_t pos =
        static_cast<std::size_t>(rng.uniform(bad.size()));
    bad[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    EXPECT_FALSE(crypto::uniform_decode(key, bad).has_value())
        << "flip at " << pos << " went undetected";
  }
}

INSTANTIATE_TEST_SUITE_P(PayloadSizes, EncodingSweep,
                         ::testing::Values(0, 1, 2, 15, 16, 17, 64, 128,
                                           255, 256, 400,
                                           crypto::kUniformCellCapacity));

// ====================================================================
// Session-length sampler: mean accuracy, tail-mass ordering,
// degenerate parameters, determinism in both directions
// ====================================================================

using scenario::sample_session;
using scenario::sample_session_hours;
using scenario::SessionModel;
using scenario::SessionSpec;

constexpr SessionModel kAllModels[] = {SessionModel::Exponential,
                                       SessionModel::Pareto,
                                       SessionModel::LogNormal};

class SessionSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SessionSweep, EmpiricalMeanTracksTheSpecForEveryModel) {
  for (const SessionModel model : kAllModels) {
    SessionSpec spec;
    spec.model = model;
    spec.mean_hours = 2.0;
    // Finite-variance corners of each family, so the sample mean of a
    // modest draw count actually settles (Pareto alpha in (1, 2] has
    // infinite variance by design — covered by the tail test instead).
    spec.pareto_alpha = 3.0;
    spec.lognormal_sigma = 0.8;
    Rng rng(0x5e55 + GetParam() * 131);
    constexpr std::size_t kDraws = 20'000;
    double sum = 0.0;
    for (std::size_t i = 0; i < kDraws; ++i)
      sum += sample_session_hours(spec, rng);
    const double mean = sum / static_cast<double>(kDraws);
    EXPECT_NEAR(mean, spec.mean_hours, spec.mean_hours * 0.15)
        << "model " << static_cast<int>(model) << " drifted";
  }
}

TEST_P(SessionSweep, ParetoCarriesMoreTailMassThanExponential) {
  // P(X > 5 * mean): exponential e^-5 ~ 0.7%; Pareto(alpha = 1.5)
  // (x_m / 5)^1.5 ~ 1.7%. The ordering must hold at every seed.
  const double mean = 1.0;
  const double cut = 5.0 * mean;
  constexpr std::size_t kDraws = 20'000;
  std::size_t exp_tail = 0;
  std::size_t pareto_tail = 0;
  for (const bool pareto : {false, true}) {
    SessionSpec spec;
    spec.model = pareto ? SessionModel::Pareto : SessionModel::Exponential;
    spec.mean_hours = mean;
    spec.pareto_alpha = 1.5;
    Rng rng(0x7a11 + GetParam());
    std::size_t& tail = pareto ? pareto_tail : exp_tail;
    for (std::size_t i = 0; i < kDraws; ++i)
      if (sample_session_hours(spec, rng) > cut) ++tail;
  }
  EXPECT_GT(exp_tail, 0u);  // the cut is reachable by both
  EXPECT_GT(pareto_tail, exp_tail)
      << "heavy tail not heavier: pareto " << pareto_tail << " vs exp "
      << exp_tail;
}

TEST_P(SessionSweep, SameSeedSameStreamDifferentSeedDiverges) {
  for (const SessionModel model : kAllModels) {
    SessionSpec spec;
    spec.model = model;
    Rng a(GetParam());
    Rng b(GetParam());
    Rng c(GetParam() + 0x9999);
    bool diverged = false;
    for (int i = 0; i < 200; ++i) {
      const double xa = sample_session_hours(spec, a);
      const double xb = sample_session_hours(spec, b);
      const double xc = sample_session_hours(spec, c);
      ASSERT_EQ(xa, xb) << "equal seeds diverged at draw " << i;
      diverged = diverged || xa != xc;
    }
    EXPECT_TRUE(diverged) << "different seeds produced equal streams";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(SessionSampler, DegenerateParametersAreWellDefined) {
  // Zero rate: a mean of 0 collapses every model to the minimum.
  for (const SessionModel model : kAllModels) {
    SessionSpec zero;
    zero.model = model;
    zero.mean_hours = 0.0;
    Rng rng(0xdead);
    for (int i = 0; i < 32; ++i) {
      EXPECT_EQ(sample_session_hours(zero, rng), 0.0);
      EXPECT_EQ(sample_session(zero, rng), SimDuration{1})
          << "durations are clamped away from 0";
    }
  }
  // min == max pins every sample to that constant, any model.
  for (const SessionModel model : kAllModels) {
    SessionSpec pinned;
    pinned.model = model;
    pinned.min_hours = 0.25;
    pinned.max_hours = 0.25;
    Rng rng(0xbeef);
    for (int i = 0; i < 32; ++i) {
      EXPECT_EQ(sample_session_hours(pinned, rng), 0.25);
      EXPECT_EQ(sample_session(pinned, rng), kHour / 4);
    }
  }
  // Degenerate parameters still consume the model's full draw budget:
  // the stream position cannot depend on parameter values.
  for (const SessionModel model : kAllModels) {
    SessionSpec zero;
    zero.model = model;
    zero.mean_hours = 0.0;
    SessionSpec live;
    live.model = model;
    Rng a(42);
    Rng b(42);
    (void)sample_session_hours(zero, a);
    (void)sample_session_hours(live, b);
    EXPECT_EQ(a.next_u64(), b.next_u64())
        << "draw budgets diverged for model " << static_cast<int>(model);
  }
}

}  // namespace
}  // namespace onion

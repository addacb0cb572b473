// DynamicConnectivity tests: exact component tracking under arbitrary
// add/delete interleavings. The structure searches the graph it views,
// so every case applies each mutation to a Graph first and reports it
// second (the Mirror helper), exactly as a MutationObserver would. Unit
// cases pin the replacement-search edge cases (bridges, cycles, two-
// clique necks, vertex retirement order, paths through untracked
// slots) and the reporting contract; the adversarial suite drives the
// worst case for replacement-edge search (cutting a long path bridge by
// bridge); the property sweep differential-tests 12 seeds of randomized
// operations, with untracked slots carrying graph edges, against a
// from-scratch union-find reference over the tracked-tracked edges. The
// batch suite lets deletions queue across many mutations and compares
// one settle() with the reference that settles after every removal
// (random interleavings, cut vertices that split several ways), and pins
// the rule that component queries wait for a settle.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "components_match.hpp"
#include "graph/dynamic_connectivity.hpp"
#include "graph/union_find.hpp"

namespace onion::graph {
namespace {

/// A graph and the structure viewing it. Each operation is applied to
/// the graph, then reported to the structure; an edge removal is settled
/// at once, so every query may follow it.
struct Mirror {
  Graph g;
  DynamicConnectivity dc{g};

  explicit Mirror(std::size_t n) : g(n) {}
  Mirror(const Mirror&) = delete;
  Mirror& operator=(const Mirror&) = delete;

  void add_edge(NodeId u, NodeId v) {
    const bool added = g.add_edge(u, v);
    ASSERT_TRUE(added) << u << "-" << v;
    dc.insert_edge(u, v);
  }
  /// Removes the edge and reports it, leaving it queued.
  void queue_remove_edge(NodeId u, NodeId v) {
    const bool removed = g.remove_edge(u, v);
    ASSERT_TRUE(removed) << u << "-" << v;
    dc.remove_edge(u, v);
  }
  void remove_edge(NodeId u, NodeId v) {
    queue_remove_edge(u, v);
    dc.settle();
  }
  /// Retires a vertex whose tracked edges were already removed; the
  /// graph drops any untracked edges it still has.
  void remove_vertex(NodeId u) {
    g.remove_node(u);
    dc.remove_vertex(u);
  }
};

/// From-scratch reference: components and largest component of the
/// tracked vertices under the tracked-tracked edges, via union-find.
struct Reference {
  std::uint64_t components = 0;
  std::uint64_t largest = 0;
};

Reference reference_of(const std::vector<NodeId>& vertices,
                       const std::vector<std::pair<NodeId, NodeId>>& edges,
                       std::size_t capacity) {
  UnionFind uf(capacity);
  for (const auto& [u, v] : edges) uf.unite(u, v);
  std::map<std::size_t, std::uint64_t> size_of_root;
  Reference r;
  for (const NodeId u : vertices) {
    const std::uint64_t s = ++size_of_root[uf.find(u)];
    if (s == 1) ++r.components;
    r.largest = std::max(r.largest, s);
  }
  return r;
}

// ====================================================================
// Unit cases
// ====================================================================

TEST(DynConn, SingletonLifecycle) {
  Mirror m(4);
  DynamicConnectivity& dc = m.dc;
  EXPECT_EQ(dc.components(), 0u);
  EXPECT_EQ(dc.largest_component(), 0u);
  dc.insert_vertex(2);
  EXPECT_TRUE(dc.tracked(2));
  EXPECT_FALSE(dc.tracked(0));
  EXPECT_EQ(dc.components(), 1u);
  EXPECT_EQ(dc.largest_component(), 1u);
  m.remove_vertex(2);
  EXPECT_FALSE(dc.tracked(2));
  EXPECT_EQ(dc.components(), 0u);
  EXPECT_EQ(dc.largest_component(), 0u);
}

TEST(DynConn, BridgeDeletionSplits) {
  Mirror m(2);
  DynamicConnectivity& dc = m.dc;
  dc.insert_vertex(0);
  dc.insert_vertex(1);
  m.add_edge(0, 1);
  EXPECT_EQ(dc.components(), 1u);
  EXPECT_TRUE(dc.same_component(0, 1));
  m.remove_edge(0, 1);
  EXPECT_EQ(dc.components(), 2u);
  EXPECT_FALSE(dc.same_component(0, 1));
  EXPECT_EQ(dc.splits(), 1u);
}

TEST(DynConn, CycleEdgeDeletionDoesNotSplit) {
  Mirror m(3);
  DynamicConnectivity& dc = m.dc;
  for (NodeId u = 0; u < 3; ++u) dc.insert_vertex(u);
  m.add_edge(0, 1);
  m.add_edge(1, 2);
  m.add_edge(2, 0);
  EXPECT_EQ(dc.components(), 1u);
  m.remove_edge(0, 1);  // replacement path 0-2-1 exists
  EXPECT_EQ(dc.components(), 1u);
  EXPECT_TRUE(dc.same_component(0, 1));
  EXPECT_EQ(dc.splits(), 0u);
  m.remove_edge(2, 0);  // now 0 is cut off
  EXPECT_EQ(dc.components(), 2u);
  EXPECT_EQ(dc.component_size(1), 2u);
  EXPECT_EQ(dc.component_size(0), 1u);
}

TEST(DynConn, TwoCliquesJoinedByNeck) {
  // Two 4-cliques joined by one edge: cutting intra-clique edges never
  // splits; cutting the neck splits into 4+4.
  Mirror m(8);
  DynamicConnectivity& dc = m.dc;
  for (NodeId u = 0; u < 8; ++u) dc.insert_vertex(u);
  for (NodeId a = 0; a < 4; ++a)
    for (NodeId b = a + 1; b < 4; ++b) {
      m.add_edge(a, b);
      m.add_edge(a + 4, b + 4);
    }
  m.add_edge(3, 4);
  EXPECT_EQ(dc.components(), 1u);
  EXPECT_EQ(dc.largest_component(), 8u);
  m.remove_edge(0, 1);  // clique-internal: still connected
  EXPECT_EQ(dc.components(), 1u);
  m.remove_edge(3, 4);  // the neck
  EXPECT_EQ(dc.components(), 2u);
  EXPECT_EQ(dc.largest_component(), 4u);
  EXPECT_FALSE(dc.same_component(0, 7));
  EXPECT_TRUE(dc.same_component(0, 3));
  EXPECT_TRUE(dc.same_component(4, 7));
}

TEST(DynConn, VertexRemovalAfterEdgeDetachment) {
  // The tracker removes a dying bot's edges one at a time, then the
  // vertex — mirroring Graph::remove_node's observer decomposition.
  Mirror m(4);
  DynamicConnectivity& dc = m.dc;
  for (NodeId u = 0; u < 4; ++u) dc.insert_vertex(u);
  m.add_edge(0, 1);
  m.add_edge(0, 2);
  m.add_edge(0, 3);
  m.add_edge(1, 2);
  EXPECT_EQ(dc.components(), 1u);
  m.remove_edge(0, 1);
  m.remove_edge(0, 2);
  m.remove_edge(0, 3);  // 3 loses its only path to {1,2}
  EXPECT_EQ(dc.component_size(0), 1u);
  EXPECT_EQ(dc.components(), 3u);  // {0} {3} {1,2}
  m.remove_vertex(0);
  EXPECT_EQ(dc.components(), 2u);
  EXPECT_EQ(dc.largest_component(), 2u);
  EXPECT_EQ(dc.num_vertices(), 3u);
}

TEST(DynConn, PathThroughUntrackedSlotIsNotAReplacement) {
  // a-b is tracked; a-S-b runs through the untracked slot S (a Sybil).
  // The graph keeps a and b connected, but the tracked subgraph does
  // not, so removing a-b must split.
  constexpr NodeId a = 0, b = 1, S = 2;
  Mirror m(3);
  DynamicConnectivity& dc = m.dc;
  dc.insert_vertex(a);
  dc.insert_vertex(b);
  m.add_edge(a, b);
  m.g.add_edge(a, S);  // untracked endpoint: never reported
  m.g.add_edge(S, b);
  m.remove_edge(a, b);
  EXPECT_EQ(dc.components(), 2u);
  EXPECT_FALSE(dc.same_component(a, b));
  EXPECT_EQ(dc.splits(), 1u);
  EXPECT_EQ(dc.num_edges(), 0u);
}

TEST(DynConn, SlotsAddedAfterConstructionAreSearchable) {
  // Slot tables follow the graph's capacity: a vertex on a slot created
  // after the structure was built is tracked, and an untracked slot
  // beyond the last tracked one is skipped by the search.
  Mirror m(2);
  DynamicConnectivity& dc = m.dc;
  dc.insert_vertex(0);
  dc.insert_vertex(1);
  const NodeId late = m.g.add_node();
  dc.insert_vertex(late);
  m.add_edge(0, late);
  m.add_edge(late, 1);
  m.add_edge(0, 1);
  const NodeId sybil = m.g.add_node();
  m.g.add_edge(0, sybil);
  m.g.add_edge(sybil, late);
  m.remove_edge(0, 1);  // replacement path 0-late-1
  EXPECT_EQ(dc.components(), 1u);
  m.remove_edge(0, late);  // 0-sybil-late does not count
  EXPECT_EQ(dc.components(), 2u);
  EXPECT_EQ(dc.largest_component(), 2u);
}

TEST(DynConn, RemovingNonIsolatedVertexIsRejected) {
  // The structure hears of a vertex's departure only after the graph
  // has dropped it.
  Mirror m(3);
  DynamicConnectivity& dc = m.dc;
  for (NodeId u = 0; u < 3; ++u) dc.insert_vertex(u);
  m.add_edge(0, 1);
  EXPECT_THROW(dc.remove_vertex(0), ContractViolation);  // still in g
  EXPECT_TRUE(dc.tracked(0));
  EXPECT_EQ(dc.components(), 2u);
}

TEST(DynConnContract, RemoveEdgeStillInGraphIsRejected) {
  // The structure searches the graph, so it must hear about a removal
  // only after the graph has applied it.
  Mirror m(3);
  DynamicConnectivity& dc = m.dc;
  for (NodeId u = 0; u < 3; ++u) dc.insert_vertex(u);
  m.add_edge(0, 1);
  m.add_edge(1, 2);
  m.add_edge(2, 0);
  EXPECT_THROW(dc.remove_edge(0, 1), ContractViolation);
  EXPECT_EQ(dc.num_edges(), 3u);
}

TEST(DynConnContract, RemoveEdgeAcrossComponentsIsRejected) {
  // An edge between two components was never reported (or the report
  // went to another structure).
  Mirror m(2);
  DynamicConnectivity& dc = m.dc;
  dc.insert_vertex(0);
  dc.insert_vertex(1);
  EXPECT_THROW(dc.remove_edge(0, 1), ContractViolation);
  EXPECT_EQ(dc.components(), 2u);
  EXPECT_EQ(dc.num_edges(), 0u);  // rejected before any state changed
}

TEST(DynConn, ResetReusesStorageAndClearsState) {
  Mirror m(8);
  DynamicConnectivity& dc = m.dc;
  for (NodeId u = 0; u < 8; ++u) dc.insert_vertex(u);
  for (NodeId u = 0; u + 1 < 8; ++u) m.add_edge(u, u + 1);
  EXPECT_EQ(dc.components(), 1u);
  dc.reset();
  EXPECT_EQ(dc.components(), 0u);
  EXPECT_EQ(dc.num_vertices(), 0u);
  EXPECT_EQ(dc.num_edges(), 0u);
  EXPECT_FALSE(dc.tracked(0));
  // The path stays in the graph; 0 and 2 are tracked without 1 between
  // them, so only a new direct edge joins them.
  dc.insert_vertex(0);
  dc.insert_vertex(2);
  m.add_edge(0, 2);
  EXPECT_EQ(dc.largest_component(), 2u);
  m.remove_edge(0, 2);  // 0-1-2 runs through the untracked 1
  EXPECT_EQ(dc.components(), 2u);
}

// ====================================================================
// Adversarial bridge sequences: worst case for replacement search
// ====================================================================

TEST(DynConnAdversarial, PathCutBridgeByBridge) {
  // A long path is all bridges. Cutting every edge left-to-right forces
  // a (failed) replacement search per cut; the exhausted side is always
  // the single detached prefix vertex, so total work stays linear even
  // though every deletion is the search's worst case.
  constexpr NodeId kN = 400;
  Mirror m(kN);
  DynamicConnectivity& dc = m.dc;
  for (NodeId u = 0; u < kN; ++u) dc.insert_vertex(u);
  for (NodeId u = 0; u + 1 < kN; ++u) m.add_edge(u, u + 1);
  EXPECT_EQ(dc.components(), 1u);
  for (NodeId u = 0; u + 1 < kN; ++u) {
    m.remove_edge(u, u + 1);
    EXPECT_EQ(dc.components(), static_cast<std::uint64_t>(u) + 2);
    EXPECT_EQ(dc.largest_component(), static_cast<std::uint64_t>(kN) - u - 1);
  }
  EXPECT_EQ(dc.splits(), static_cast<std::uint64_t>(kN) - 1);
  // The exhausted side is the smaller one (±1 alternation step): each
  // prefix cut costs O(1) expansions, not O(remaining path).
  EXPECT_LE(dc.search_steps(), 4u * kN);
}

TEST(DynConnAdversarial, MiddleCutPaysOnlySmallerSide) {
  // Cutting a path exactly in half: the search must charge the smaller
  // side, so the cost is ~n/2 expansions, not ~n.
  constexpr NodeId kN = 256;
  Mirror m(kN);
  DynamicConnectivity& dc = m.dc;
  for (NodeId u = 0; u < kN; ++u) dc.insert_vertex(u);
  for (NodeId u = 0; u + 1 < kN; ++u) m.add_edge(u, u + 1);
  const std::uint64_t before = dc.search_steps();
  m.remove_edge(kN / 2 - 1, kN / 2);
  EXPECT_EQ(dc.components(), 2u);
  EXPECT_EQ(dc.largest_component(), kN / 2);
  EXPECT_LE(dc.search_steps() - before, kN + 4);  // both frontiers ≈ n/2
}

TEST(DynConnAdversarial, StarCenterRetirement) {
  // A star is n-1 bridges sharing an endpoint; killing the center one
  // spoke at a time rains singletons.
  constexpr NodeId kN = 64;
  Mirror m(kN);
  DynamicConnectivity& dc = m.dc;
  for (NodeId u = 0; u < kN; ++u) dc.insert_vertex(u);
  for (NodeId u = 1; u < kN; ++u) m.add_edge(0, u);
  EXPECT_EQ(dc.largest_component(), kN);
  for (NodeId u = 1; u < kN; ++u) m.remove_edge(0, u);
  EXPECT_EQ(dc.components(), static_cast<std::uint64_t>(kN));
  EXPECT_EQ(dc.largest_component(), 1u);
  m.remove_vertex(0);
  EXPECT_EQ(dc.components(), static_cast<std::uint64_t>(kN) - 1);
}

// ====================================================================
// Property sweep: 12 seeds of randomized interleavings vs union-find
// ====================================================================

TEST(DynConnDifferential, MatchesUnionFindRebuildAcrossSeeds) {
  // Tracked vertices come and go on fresh graph slots; untracked Sybil
  // slots (some created after the structure) carry graph edges to
  // Sybils and tracked vertices alike, which must never count as paths.
  constexpr std::size_t kCap = 96;
  constexpr NodeId kFirstSybils = 4;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    Mirror m(kFirstSybils);
    DynamicConnectivity& dc = m.dc;
    std::vector<NodeId> sybils;
    for (NodeId s = 0; s < kFirstSybils; ++s) sybils.push_back(s);
    std::vector<NodeId> vertices;
    std::vector<std::pair<NodeId, NodeId>> edges;  // tracked-tracked
    const auto vertex_index = [&](NodeId u) {
      return std::find(vertices.begin(), vertices.end(), u) -
             vertices.begin();
    };
    std::size_t sybil_edges_added = 0;
    for (int op = 0; op < 600; ++op) {
      const std::uint64_t kind = rng.uniform(100);
      if (kind < 20 && vertices.size() < kCap) {  // insert vertex
        const NodeId u = m.g.add_node();
        dc.insert_vertex(u);
        vertices.push_back(u);
      } else if (kind < 25) {  // a new Sybil slot, never tracked
        sybils.push_back(m.g.add_node());
      } else if (kind < 55 && vertices.size() >= 2) {  // insert edge
        const NodeId u = vertices[rng.uniform(vertices.size())];
        const NodeId v = vertices[rng.uniform(vertices.size())];
        if (u == v) continue;
        const auto present = [&](NodeId a, NodeId b) {
          return std::find(edges.begin(), edges.end(),
                           std::make_pair(std::min(a, b), std::max(a, b))) !=
                 edges.end();
        };
        if (present(u, v)) continue;
        m.add_edge(u, v);
        edges.emplace_back(std::min(u, v), std::max(u, v));
      } else if (kind < 70) {  // toggle a Sybil edge, graph only
        const NodeId s = sybils[rng.uniform(sybils.size())];
        const NodeId w = vertices.empty() || rng.uniform(2) == 0
                             ? sybils[rng.uniform(sybils.size())]
                             : vertices[rng.uniform(vertices.size())];
        if (s == w) continue;
        if (m.g.add_edge(s, w))
          ++sybil_edges_added;
        else
          m.g.remove_edge(s, w);
      } else if (kind < 88 && !edges.empty()) {  // remove edge
        const std::size_t e = rng.uniform(edges.size());
        m.remove_edge(edges[e].first, edges[e].second);
        edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(e));
      } else if (!vertices.empty()) {  // retire a vertex (edges first)
        const NodeId u = vertices[rng.uniform(vertices.size())];
        for (std::size_t e = edges.size(); e-- > 0;) {
          if (edges[e].first != u && edges[e].second != u) continue;
          m.remove_edge(edges[e].first, edges[e].second);
          edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(e));
        }
        m.remove_vertex(u);  // also drops its Sybil edges from the graph
        vertices.erase(vertices.begin() +
                       static_cast<std::ptrdiff_t>(vertex_index(u)));
      }

      const Reference ref = reference_of(vertices, edges, m.g.capacity());
      ASSERT_EQ(dc.components(), ref.components)
          << "seed " << seed << " op " << op;
      ASSERT_EQ(dc.largest_component(), ref.largest)
          << "seed " << seed << " op " << op;
      ASSERT_EQ(dc.num_vertices(), vertices.size());
      ASSERT_EQ(dc.num_edges(), edges.size());
    }
    EXPECT_GT(sybil_edges_added, 50u) << "seed " << seed;
  }
}

TEST(DynConnDifferential, CountersAreDeterministic) {
  // Same operation sequence => identical merge/split/search counters —
  // the structure draws no randomness and iterates no unordered state.
  const auto run = [] {
    Mirror m(32);
    DynamicConnectivity& dc = m.dc;
    Rng rng(99);
    for (NodeId u = 0; u < 32; ++u) dc.insert_vertex(u);
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (int op = 0; op < 300; ++op) {
      const NodeId u = static_cast<NodeId>(rng.uniform(32));
      const NodeId v = static_cast<NodeId>(rng.uniform(32));
      if (u == v) continue;
      const auto key = std::make_pair(std::min(u, v), std::max(u, v));
      const auto it = std::find(edges.begin(), edges.end(), key);
      if (it == edges.end()) {
        m.add_edge(key.first, key.second);
        edges.push_back(key);
      } else {
        m.remove_edge(key.first, key.second);
        edges.erase(it);
      }
    }
    return std::tuple{dc.merges(), dc.splits(), dc.search_steps(),
                      dc.components(), dc.largest_component()};
  };
  EXPECT_EQ(run(), run());
}

// ====================================================================
// Batches: many deletions, one settle, vs settling every removal
// ====================================================================

/// Observes a graph with two structures over the same slots: `immediate`
/// settles after every edge removal (the reference), `lazy` only when
/// settle() runs here, or after every removal too while `eager` is set.
/// Slots whose id is a multiple of `sybil_stride` (none when 0) are never
/// tracked, but their edges stay in the graph. After every settle the two
/// must agree with each other and with a union-find rebuild over the
/// graph. Attach to an edgeless graph.
struct Twin final : MutationObserver {
  Graph& g;
  NodeId sybil_stride;
  DynamicConnectivity immediate{g};
  DynamicConnectivity lazy{g};
  bool eager = false;
  std::uint64_t settles = 0;

  Twin(Graph& graph, NodeId stride) : g(graph), sybil_stride(stride) {
    EXPECT_EQ(g.num_edges(), 0u);
    for (const NodeId u : g.alive_nodes()) on_node_added(u);
    g.set_observer(this);
  }
  ~Twin() override { g.set_observer(nullptr); }
  Twin(const Twin&) = delete;
  Twin& operator=(const Twin&) = delete;

  bool tracked(NodeId u) const {
    return sybil_stride == 0 || u % sybil_stride != 0;
  }
  void on_node_added(NodeId u) override {
    if (!tracked(u)) return;
    immediate.insert_vertex(u);
    lazy.insert_vertex(u);
  }
  void on_node_removed(NodeId u) override {
    if (!tracked(u)) return;
    immediate.remove_vertex(u);
    lazy.remove_vertex(u);
  }
  void on_edge_added(NodeId u, NodeId v) override {
    if (!tracked(u) || !tracked(v)) return;
    immediate.insert_edge(u, v);
    lazy.insert_edge(u, v);
  }
  void on_edge_removed(NodeId u, NodeId v) override {
    if (!tracked(u) || !tracked(v)) return;
    immediate.remove_edge(u, v);
    immediate.settle();
    lazy.remove_edge(u, v);
    if (eager) lazy.settle();
  }

  /// Settles `lazy` and checks it.
  void settle() {
    lazy.settle();
    std::string where = "settle ";
    where += std::to_string(++settles);
    check(where);
  }

  void check(const std::string& where) const {
    expect_same_components(lazy, immediate, g.capacity(), where);
    std::vector<NodeId> vertices;
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (const NodeId u : g.alive_nodes()) {
      if (!tracked(u)) continue;
      vertices.push_back(u);
      for (const NodeId v : g.neighbors(u))
        if (v > u && tracked(v)) edges.emplace_back(u, v);
    }
    const Reference ref = reference_of(vertices, edges, g.capacity());
    ASSERT_EQ(lazy.components(), ref.components) << where;
    ASSERT_EQ(lazy.largest_component(), ref.largest) << where;
  }
};

TEST(DynConnBatch, RandomInterleavingsMatchImmediate) {
  // Rounds of 1-8 random mutations: node births and deaths, edge
  // insertions and removals, with every fifth slot an untracked Sybil
  // whose edges are no path. Three rounds in four settle once at the
  // end; the fourth settles after every removal.
  std::uint64_t multi_way = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    Graph g(30);
    Twin twin(g, 5);
    const auto random_alive = [&] { return rng.pick(g.alive_nodes()); };
    const auto mutate = [&] {
      const std::uint64_t ops = 1 + rng.uniform(8);
      for (std::uint64_t op = 0; op < ops; ++op) {
        const std::uint64_t kind = rng.uniform(100);
        if (kind < 10 && g.num_alive() < 80) {
          g.add_node();
        } else if (kind < 55) {
          g.add_edge(random_alive(), random_alive());  // u == v: no-op
        } else if (kind < 85) {
          const NodeId u = random_alive();
          if (g.degree(u) > 0)
            g.remove_edge(u, g.neighbors(u)[rng.uniform(g.degree(u))]);
        } else if (g.num_alive() > 10) {
          g.remove_node(random_alive());
        }
      }
    };
    for (int round = 0; round < 200 && !HasFailure(); ++round) {
      if (rng.uniform(4) == 0) {
        twin.eager = true;
        mutate();
        twin.eager = false;
        std::string where = "seed ";
        where += std::to_string(seed);
        where += " eager round";
        twin.check(where);
        continue;
      }
      const std::uint64_t before = twin.lazy.components();
      mutate();
      twin.settle();
      if (twin.lazy.components() >= before + 2) ++multi_way;
    }
    EXPECT_GT(twin.settles, 100u) << "seed " << seed;
    EXPECT_GT(twin.lazy.splits(), 0u) << "seed " << seed;
  }
  EXPECT_GT(multi_way, 0u) << "no settle split a component several ways";
}

TEST(DynConnBatch, CutVertexSplitsSeveralWays) {
  // Three 4-cliques hang off hub 0, two edges each. Deleting the hub and
  // then settling leaves three pieces from one search: two split off,
  // the last keeps the label, and the dead hub is no split at all. The
  // immediate reference splits each clique off as its second hub edge
  // goes, then the hub itself.
  Graph g(13);
  Twin twin(g, 0);
  for (NodeId c = 1; c < 13; c += 4) {
    for (NodeId a = c; a < c + 4; ++a)
      for (NodeId b = a + 1; b < c + 4; ++b) g.add_edge(a, b);
    g.add_edge(0, c);
    g.add_edge(0, c + 1);
  }
  g.remove_node(0);
  twin.settle();
  EXPECT_EQ(twin.lazy.components(), 3u);
  EXPECT_EQ(twin.lazy.largest_component(), 4u);
  EXPECT_EQ(twin.lazy.splits(), 2u);
  EXPECT_EQ(twin.immediate.splits(), 3u);
}

TEST(DynConnBatch, ChainCutAtSeveralVerticesInOneBatch) {
  // A 12-vertex path loses vertices 3, 7 and 10 before one settle: four
  // pieces ({0,1,2} {4,5,6} {8,9} {11}), three of them split off.
  Graph g(12);
  Twin twin(g, 0);
  for (NodeId u = 0; u + 1 < 12; ++u) g.add_edge(u, u + 1);
  for (const NodeId u : {3u, 7u, 10u}) g.remove_node(u);
  twin.settle();
  EXPECT_EQ(twin.lazy.components(), 4u);
  EXPECT_EQ(twin.lazy.largest_component(), 3u);
  EXPECT_EQ(twin.lazy.splits(), 3u);
  EXPECT_EQ(twin.settles, 1u);
}

TEST(DynConnBatch, DyingVertexIsNotASplit) {
  // On a cycle, deleting a vertex splits nothing. Settling after every
  // removal still splits the dying vertex off with its last edge.
  Graph g(6);
  Twin twin(g, 0);
  for (NodeId u = 0; u < 6; ++u) g.add_edge(u, (u + 1) % 6);
  g.remove_node(2);
  twin.settle();
  EXPECT_EQ(twin.lazy.splits(), 0u);
  EXPECT_EQ(twin.immediate.splits(), 1u);
  EXPECT_EQ(twin.lazy.components(), 1u);
  EXPECT_GT(twin.lazy.search_steps(), 0u);
}

TEST(DynConnBatchContract, ComponentQueriesWaitForTheBatchToClose) {
  // While deletions are queued, labels may be too coarse, so component
  // answers are refused; vertex and edge counts stay exact. A vertex
  // whose stale component is not a singleton may leave.
  Mirror m(4);
  DynamicConnectivity& dc = m.dc;
  for (NodeId u = 0; u < 4; ++u) dc.insert_vertex(u);
  m.add_edge(0, 1);
  m.add_edge(1, 2);
  m.add_edge(2, 3);
  m.queue_remove_edge(0, 1);
  m.queue_remove_edge(1, 2);
  EXPECT_THROW(dc.components(), ContractViolation);
  EXPECT_THROW(dc.largest_component(), ContractViolation);
  EXPECT_THROW(dc.component_size(0), ContractViolation);
  EXPECT_THROW(dc.same_component(0, 3), ContractViolation);
  EXPECT_EQ(dc.num_edges(), 1u);
  m.remove_vertex(1);  // stale component {0,1,2,3}: accepted
  EXPECT_EQ(dc.num_vertices(), 3u);
  dc.settle();
  EXPECT_EQ(dc.components(), 2u);  // {0} {2,3}
  EXPECT_EQ(dc.largest_component(), 2u);
  EXPECT_EQ(dc.splits(), 1u);
  const std::uint64_t steps = dc.search_steps();
  dc.settle();  // nothing queued: no search
  EXPECT_EQ(dc.search_steps(), steps);
}

}  // namespace
}  // namespace onion::graph

// StructuralTracker tests: the differential property sweep (random
// campaign op interleavings — joins, leaves, takedowns, repair/refill,
// Sybil injection/retirement, and SOAP capture bursts — must leave the
// tracker byte-identical to the from-scratch sweep after every window,
// across many seeds), the fully-dynamic component scheme (deletion
// windows update connectivity in place), the honest
// order-statistics used for engine victim draws, the attach/detach
// contract, and settled deletions (every fill settles what the tracker
// queued, and must match a structure that settles after every removal on
// the same overlay, also on SOAP-ed overlays and unpruned DDSR runs; a
// seeded overlay pins the search steps per deletion).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "components_match.hpp"
#include "core/ddsr.hpp"
#include "graph/dynamic_connectivity.hpp"
#include "mitigation/soap.hpp"
#include "scenario/tracker.hpp"

namespace onion::scenario {
namespace {

using core::DdsrEngine;
using core::DdsrPolicy;
using core::OverlayConfig;
using core::OverlayNetwork;
using graph::NodeId;

constexpr std::size_t kDegree = 6;
constexpr std::size_t kCostDeletions = 400;

OverlayNetwork make_overlay(std::size_t n, Rng& rng) {
  OverlayConfig config;
  config.dmin = kDegree;
  config.dmax = kDegree;
  return OverlayNetwork::random_regular(n, kDegree, config, rng);
}

DdsrPolicy policy() {
  DdsrPolicy p;
  p.dmin = kDegree;
  p.dmax = kDegree;
  return p;
}

// ====================================================================
// Differential property sweep: tracker == sweep after every window
// ====================================================================

// One random campaign op against the overlay: the same vocabulary the
// engine drives (join + bootstrap peering, healed leave, unhealed
// takedown, refill repair, Sybil clone injection, Sybil retirement, and
// a short SOAP capture burst).
void random_op(OverlayNetwork& net, DdsrEngine& ddsr, Rng& rng) {
  const std::vector<NodeId> honest = net.honest_nodes();
  switch (rng.uniform(7)) {
    case 0: {  // join with bootstrap peering
      const NodeId id = net.add_node(/*honest=*/true);
      const std::size_t want = std::min<std::size_t>(kDegree, honest.size());
      for (const NodeId target : rng.sample(honest, want)) {
        NodeId evicted = graph::kInvalidNode;
        net.request_peering(id, target, &evicted);
        if (evicted != graph::kInvalidNode) net.refill(evicted);
      }
      net.refill(id);
      break;
    }
    case 1:  // healed leave (DDSR clique repair + prune + refill)
      if (honest.size() > 2) ddsr.remove_node(rng.pick(honest));
      break;
    case 2:  // unhealed takedown (the Figure 6 simultaneous model)
      if (honest.size() > 2) ddsr.remove_node_no_repair(rng.pick(honest));
      break;
    case 3:  // repair pass on a random bot
      if (!honest.empty()) net.refill(rng.pick(honest));
      break;
    case 4: {  // Sybil clone injection (declares a lying degree of 1)
      const NodeId clone = net.add_node(/*honest=*/false, 1);
      if (!honest.empty()) net.request_peering(clone, rng.pick(honest));
      break;
    }
    case 5: {  // Sybil retirement
      std::vector<NodeId> sybils;
      for (NodeId u = 0; u < net.graph().capacity(); ++u)
        if (net.alive(u) && !net.honest(u)) sybils.push_back(u);
      if (!sybils.empty()) net.retire(rng.pick(sybils));
      break;
    }
    case 6: {  // SOAP capture burst: clone injection + eviction churn
      if (honest.empty()) break;
      mitigation::SoapCampaign soap(net, mitigation::SoapConfig{}, rng);
      soap.capture(rng.pick(honest));
      for (int step = 0; step < 3 && soap.step(); ++step) {
      }
      break;
    }
  }
}

TEST(TrackerDifferential, MatchesSweepAfterEveryWindowAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    OverlayNetwork net = make_overlay(120, rng);
    DdsrEngine ddsr(net.graph_mut(), policy(), rng);
    StructuralTracker tracker(net);
    for (int window = 0; window < 40; ++window) {
      for (int op = 0; op < 8; ++op) random_op(net, ddsr, rng);
      MetricsSnapshot incremental;
      tracker.fill(incremental, /*with_histogram=*/true);
      const MetricsSnapshot sweep = sweep_structural(net, true);
      ASSERT_EQ(codec::encode(incremental), codec::encode(sweep))
          << "seed " << seed << " window " << window << ": tracker ("
          << incremental.honest_alive << "n/" << incremental.honest_edges
          << "e/" << incremental.components << "c) vs sweep ("
          << sweep.honest_alive << "n/" << sweep.honest_edges << "e/"
          << sweep.components << "c)";
    }
  }
}

TEST(TrackerDifferential, MatchesSweepWithHistogramDisabled) {
  Rng rng(77);
  OverlayNetwork net = make_overlay(80, rng);
  DdsrEngine ddsr(net.graph_mut(), policy(), rng);
  StructuralTracker tracker(net);
  for (int op = 0; op < 50; ++op) random_op(net, ddsr, rng);
  MetricsSnapshot incremental;
  tracker.fill(incremental, /*with_histogram=*/false);
  EXPECT_TRUE(incremental.degree_histogram.empty());
  EXPECT_EQ(codec::encode(incremental),
            codec::encode(sweep_structural(net, false)));
}

// ====================================================================
// Fully-dynamic component scheme: every window is folded in place
// ====================================================================

TEST(TrackerDynamic, PureGrowthWindowsNeverRebuild) {
  Rng rng(5);
  OverlayNetwork net = make_overlay(60, rng);
  StructuralTracker tracker(net);
  MetricsSnapshot s;
  tracker.fill(s, true);

  for (int window = 0; window < 5; ++window) {
    const std::vector<NodeId> honest = net.honest_nodes();
    const NodeId id = net.add_node(/*honest=*/true);
    for (const NodeId target : rng.sample(honest, 3))
      net.graph_mut().add_edge(id, target);
    tracker.fill(s, true);
  }
  EXPECT_EQ(s.components, 1u);
  EXPECT_EQ(s.honest_alive, 65u);
}

TEST(TrackerDynamic, DeletionWindowsNeedNoRebuildAndStayExact) {
  Rng rng(6);
  OverlayNetwork net = make_overlay(60, rng);
  DdsrEngine ddsr(net.graph_mut(), policy(), rng);
  StructuralTracker tracker(net);

  // Deletions — healed and unhealed, one per window or several — are
  // folded in as they happen, and the fill stays byte-identical to the
  // from-scratch sweep.
  ddsr.remove_node(net.honest_nodes().front());
  MetricsSnapshot s;
  tracker.fill(s, true);
  EXPECT_EQ(codec::encode(s), codec::encode(sweep_structural(net, true)));

  for (int i = 0; i < 4; ++i)
    ddsr.remove_node_no_repair(net.honest_nodes().front());
  tracker.fill(s, true);
  EXPECT_EQ(codec::encode(s), codec::encode(sweep_structural(net, true)));

  // A fill with no intervening mutations is unchanged too.
  MetricsSnapshot again;
  tracker.fill(again, true);
  EXPECT_EQ(codec::encode(again), codec::encode(s));
}

TEST(TrackerDynamic, SybilOnlyChangesNeverTouchConnectivity) {
  Rng rng(7);
  // Spare degree capacity: the clone must be accepted without evicting
  // an honest peer (an eviction would drop an honest-honest edge, which
  // legitimately exercises the dynamic structure).
  OverlayConfig config;
  config.dmin = kDegree;
  config.dmax = kDegree + 2;
  OverlayNetwork net =
      OverlayNetwork::random_regular(40, kDegree, config, rng);
  StructuralTracker tracker(net);
  const auto splits_before = tracker.connectivity().splits();
  const auto merges_before = tracker.connectivity().merges();
  const NodeId clone = net.add_node(/*honest=*/false, 1);
  net.request_peering(clone, net.honest_nodes().front());
  net.retire(clone);  // drops an honest-Sybil edge + a Sybil node
  MetricsSnapshot s;
  tracker.fill(s, true);
  // Sybil slots never enter the honest connectivity structure at all.
  EXPECT_EQ(tracker.connectivity().splits(), splits_before);
  EXPECT_EQ(tracker.connectivity().merges(), merges_before);
  EXPECT_EQ(codec::encode(s), codec::encode(sweep_structural(net, true)));
}

// ====================================================================
// Regressions: histogram trailing zeros, dead union-find slots
// ====================================================================

TEST(TrackerRegression, MaxDegreeTakedownsTrimHistogramBytes) {
  // Taking down the max-degree bot (unhealed, so nobody re-fills into
  // the top bucket) can leave the incremental histogram with trailing
  // zero buckets the sweep never emits — the serialized snapshots must
  // stay byte-identical anyway.
  Rng rng(11);
  OverlayNetwork net = make_overlay(60, rng);
  DdsrEngine ddsr(net.graph_mut(), policy(), rng);
  StructuralTracker tracker(net);
  for (int round = 0; round < 6; ++round) {
    const std::vector<NodeId> honest = net.honest_nodes();
    if (honest.size() <= 2) break;
    NodeId top = honest.front();
    for (const NodeId u : honest)
      if (net.graph().degree(u) > net.graph().degree(top)) top = u;
    ddsr.remove_node_no_repair(top);
    MetricsSnapshot inc;
    tracker.fill(inc, /*with_histogram=*/true);
    const MetricsSnapshot sweep = sweep_structural(net, true);
    ASSERT_EQ(inc.degree_histogram.size(), sweep.degree_histogram.size())
        << "trailing-zero buckets leaked in round " << round;
    ASSERT_EQ(codec::encode(inc), codec::encode(sweep)) << "round " << round;
  }
}

TEST(TrackerRegression, DeadSlotsNeverInflateComponents) {
  // UnionFind::num_sets() counts the whole universe, dead slots
  // included; every consumer must compensate. Remove nodes, then check
  // the tracker, the sweep, and the overlay's own component count agree.
  Rng rng(12);
  OverlayNetwork net = make_overlay(40, rng);
  DdsrEngine ddsr(net.graph_mut(), policy(), rng);
  StructuralTracker tracker(net);
  for (int i = 0; i < 10; ++i)
    ddsr.remove_node(net.honest_nodes().front());
  MetricsSnapshot s;
  tracker.fill(s, true);
  const MetricsSnapshot sweep = sweep_structural(net, true);
  EXPECT_EQ(s.components, sweep.components);
  EXPECT_EQ(s.components, net.honest_components());
  EXPECT_EQ(codec::encode(s), codec::encode(sweep));
}

// ====================================================================
// Honest order statistics: the engine's victim-draw primitives
// ====================================================================

TEST(TrackerOrderStat, HonestAtMatchesHonestNodesVector) {
  Rng rng(13);
  OverlayNetwork net = make_overlay(80, rng);
  DdsrEngine ddsr(net.graph_mut(), policy(), rng);
  StructuralTracker tracker(net);
  for (int window = 0; window < 20; ++window) {
    for (int op = 0; op < 5; ++op) random_op(net, ddsr, rng);
    const std::vector<NodeId> honest = net.honest_nodes();
    ASSERT_EQ(tracker.honest_alive(), honest.size());
    for (std::size_t k = 0; k < honest.size(); ++k)
      ASSERT_EQ(tracker.honest_at(k), honest[k])
          << "window " << window << " rank " << k;
  }
}

// ====================================================================
// Attach / detach contract
// ====================================================================

TEST(Tracker, SecondTrackerOnSameGraphRejected) {
  Rng rng(8);
  OverlayNetwork net = make_overlay(20, rng);
  StructuralTracker tracker(net);
  EXPECT_THROW(StructuralTracker second(net), ContractViolation);
}

TEST(Tracker, DetachesOnDestructionSoASuccessorCanAttach) {
  Rng rng(9);
  OverlayNetwork net = make_overlay(20, rng);
  {
    StructuralTracker tracker(net);
    EXPECT_EQ(net.graph().observer(), &tracker);
  }
  EXPECT_EQ(net.graph().observer(), nullptr);
  StructuralTracker successor(net);  // re-absorbs the live state
  MetricsSnapshot s;
  successor.fill(s, true);
  EXPECT_EQ(s.honest_alive, 20u);
  EXPECT_EQ(codec::encode(s), codec::encode(sweep_structural(net, true)));
}

TEST(Tracker, AbsorbsMidCampaignState) {
  // Attaching to a graph that already lived through churn must start
  // from the current truth, not zero.
  Rng rng(10);
  OverlayNetwork net = make_overlay(50, rng);
  DdsrEngine ddsr(net.graph_mut(), policy(), rng);
  for (int op = 0; op < 30; ++op) random_op(net, ddsr, rng);
  StructuralTracker tracker(net);
  MetricsSnapshot s;
  tracker.fill(s, true);
  EXPECT_EQ(codec::encode(s), codec::encode(sweep_structural(net, true)));
}

// ====================================================================
// Bulk attach vs the sequential insert_vertex / insert_edge oracle
// ====================================================================

/// The attach path the bulk load replaced: every honest alive slot as a
/// singleton, then insert_edge for u ascending, v in neighbors(u), v > u.
graph::DynamicConnectivity sequential_attach(const OverlayNetwork& net) {
  const graph::Graph& g = net.graph();
  graph::DynamicConnectivity dc(g);
  for (NodeId u = 0; u < g.capacity(); ++u)
    if (g.alive(u) && net.honest(u)) dc.insert_vertex(u);
  for (NodeId u = 0; u < g.capacity(); ++u) {
    if (!g.alive(u) || !net.honest(u)) continue;
    for (const NodeId v : g.neighbors(u))
      if (v > u && net.honest(v)) dc.insert_edge(u, v);
  }
  return dc;
}

TEST(TrackerAttach, BulkLoadMatchesSequentialInsertsOnSoapedOverlays) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    OverlayNetwork net = make_overlay(120, rng);
    DdsrEngine ddsr(net.graph_mut(), policy(), rng);
    for (int op = 0; op < 60; ++op) random_op(net, ddsr, rng);
    // Force the shapes the load must handle: isolated honest nodes (and
    // so several components) next to the Sybils and dead slots the
    // campaign left behind.
    for (int i = 0; i < 2; ++i) {
      const NodeId lone = rng.pick(net.honest_nodes());
      while (net.graph().degree(lone) > 0)
        net.drop_edge(lone, net.neighbors(lone).front());
    }
    const std::string where = "seed " + std::to_string(seed);
    std::size_t sybils = 0;
    std::size_t dead = 0;
    for (NodeId u = 0; u < net.graph().capacity(); ++u) {
      if (!net.alive(u))
        ++dead;
      else if (!net.honest(u))
        ++sybils;
    }
    ASSERT_GT(sybils, 0u) << where;
    ASSERT_GT(dead, 0u) << where;

    graph::Graph& g = net.graph_mut();
    const std::size_t cap = g.capacity();
    graph::DynamicConnectivity bulk(g);
    bulk.load(net.honest_component_labels());
    graph::DynamicConnectivity seq = sequential_attach(net);
    ASSERT_GE(bulk.components(), 3u) << where;
    EXPECT_EQ(bulk.merges(), 0u);
    graph::expect_same_components(bulk, seq, cap, where + " after attach");

    {  // The tracker built on the same state agrees with the sweep.
      StructuralTracker tracker(net);
      MetricsSnapshot s;
      tracker.fill(s, true);
      ASSERT_EQ(codec::encode(s), codec::encode(sweep_structural(net, true)))
          << where;
      const std::vector<NodeId> honest = net.honest_nodes();
      ASSERT_EQ(tracker.honest_alive(), honest.size());
      for (std::size_t k = 0; k < honest.size(); ++k)
        ASSERT_EQ(tracker.honest_at(k), honest[k]) << where << " k=" << k;
    }

    // One shared deletion sequence, applied to the graph first and then
    // reported to both structures, which settle after each op. They
    // search the same adjacency, so even the cost counters must agree.
    const auto remove_edge = [&](NodeId u, NodeId v) {
      ASSERT_TRUE(g.remove_edge(u, v)) << where << " " << u << "-" << v;
      bulk.remove_edge(u, v);
      seq.remove_edge(u, v);
    };
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (NodeId u = 0; u < cap; ++u) {
      if (!bulk.tracked(u)) continue;
      for (const NodeId v : g.neighbors(u))
        if (v > u && bulk.tracked(v)) edges.emplace_back(u, v);
    }
    for (int op = 0; op < 150 && !edges.empty(); ++op) {
      if (rng.uniform(4) != 0) {
        const std::size_t e = rng.uniform(edges.size());
        remove_edge(edges[e].first, edges[e].second);
        edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(e));
      } else {  // retire a node edge by edge, then the vertex
        const NodeId u = edges[rng.uniform(edges.size())].first;
        for (std::size_t e = edges.size(); e-- > 0;) {
          if (edges[e].first != u && edges[e].second != u) continue;
          remove_edge(edges[e].first, edges[e].second);
          edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(e));
        }
        g.remove_node(u);  // drops its Sybil edges too
        bulk.remove_vertex(u);
        seq.remove_vertex(u);
      }
      bulk.settle();
      seq.settle();
      const std::string at = where + " op " + std::to_string(op);
      ASSERT_EQ(bulk.splits(), seq.splits()) << at;
      ASSERT_EQ(bulk.search_steps(), seq.search_steps()) << at;
      graph::expect_same_components(bulk, seq, cap, at);
    }
    EXPECT_GT(bulk.splits(), 0u) << where;
  }
}

// ====================================================================
// Settled deletions: one settle per fill, checked against immediate
// ====================================================================

/// Stands between the graph and a tracker: forwards every callback to
/// the tracker, which queues deletions until its next fill, and feeds an
/// immediate DynamicConnectivity over the same honest slots, which
/// settles after every edge removal. A check fills the tracker, which
/// must match the from-scratch sweep byte for byte and then partition
/// like the immediate structure.
class ImmediateTee final : public graph::MutationObserver {
 public:
  ImmediateTee(OverlayNetwork& net, StructuralTracker& tracker)
      : net_(net), tracker_(tracker), immediate_(net.graph()) {
    immediate_.load(net.honest_component_labels());
    net_.graph_mut().set_observer(nullptr);  // take the tracker's place
    net_.graph_mut().set_observer(this);
  }
  ~ImmediateTee() override {
    net_.graph_mut().set_observer(nullptr);
    net_.graph_mut().set_observer(&tracker_);
  }
  ImmediateTee(const ImmediateTee&) = delete;
  ImmediateTee& operator=(const ImmediateTee&) = delete;

  void on_node_added(NodeId u) override {
    tracker_.on_node_added(u);
    if (net_.honest(u)) immediate_.insert_vertex(u);
  }
  void on_node_removed(NodeId u) override {
    tracker_.on_node_removed(u);
    if (net_.honest(u)) immediate_.remove_vertex(u);
  }
  void on_edge_added(NodeId u, NodeId v) override {
    tracker_.on_edge_added(u, v);
    if (net_.honest(u) && net_.honest(v)) immediate_.insert_edge(u, v);
  }
  void on_edge_removed(NodeId u, NodeId v) override {
    tracker_.on_edge_removed(u, v);
    if (!net_.honest(u) || !net_.honest(v)) return;
    immediate_.remove_edge(u, v);
    immediate_.settle();
  }

  void check(const std::string& where) {
    MetricsSnapshot s;
    tracker_.fill(s, /*with_histogram=*/true);
    ASSERT_EQ(codec::encode(s), codec::encode(sweep_structural(net_, true)))
        << where;
    graph::expect_same_components(tracker_.connectivity(), immediate_,
                                  net_.graph().capacity(), where);
  }

 private:
  OverlayNetwork& net_;
  StructuralTracker& tracker_;
  graph::DynamicConnectivity immediate_;
};

TEST(TrackerBatch, MatchesImmediateOnSoapedOverlays) {
  // Windows of eight random_op calls (DDSR deletions, joins, refills,
  // Sybil clones and SOAP bursts), each settled by one fill.
  for (std::uint64_t seed = 1; seed <= 12 && !HasFailure(); ++seed) {
    Rng rng(seed);
    OverlayNetwork net = make_overlay(120, rng);
    DdsrEngine ddsr(net.graph_mut(), policy(), rng);
    StructuralTracker tracker(net);
    ImmediateTee tee(net, tracker);
    for (int window = 0; window < 40 && !HasFailure(); ++window) {
      for (int op = 0; op < 8; ++op) random_op(net, ddsr, rng);
      std::string where = "seed ";
      where += std::to_string(seed);
      where += " window ";
      where += std::to_string(window);
      tee.check(where);
    }
    std::size_t sybils = 0;
    std::size_t dead = 0;
    for (NodeId u = 0; u < net.graph().capacity(); ++u) {
      if (!net.alive(u))
        ++dead;
      else if (!net.honest(u))
        ++sybils;
    }
    EXPECT_GT(tracker.connectivity().search_steps(), 0u) << "seed " << seed;
    EXPECT_GT(sybils, 0u) << "seed " << seed;
    EXPECT_GT(dead, 0u) << "seed " << seed;
  }
}

TEST(TrackerBatch, UnprunedDdsrSettlesHundredsOfFrontiers) {
  // Without pruning, clique repair grows degrees into the hundreds, so a
  // deletion queues hundreds of endpoints in one component: one search
  // with that many frontiers at the next fill. Every fifth deletion is
  // unhealed.
  Rng rng(21);
  OverlayNetwork net = make_overlay(300, rng);
  DdsrPolicy unpruned = policy();
  unpruned.prune = false;
  DdsrEngine ddsr(net.graph_mut(), unpruned, rng);
  StructuralTracker tracker(net);
  ImmediateTee tee(net, tracker);
  std::size_t widest = 0;
  for (int i = 0; i < 200 && !HasFailure(); ++i) {
    const NodeId victim = rng.pick(net.honest_nodes());
    widest = std::max(widest, net.graph().degree(victim));
    if (i % 5 == 4)
      ddsr.remove_node_no_repair(victim);
    else
      ddsr.remove_node(victim);
    std::string where = "deletion ";
    where += std::to_string(i);
    tee.check(where);
  }
  EXPECT_GE(widest, 100u);
}

/// Search steps of 400 healed DDSR deletions (repair, prune and refill)
/// of distinct random bots on a seeded 20k-bot overlay at degree 10,
/// settled by a fill after every deletion or by one fill at the end.
std::uint64_t steps_of_seeded_deletions(bool fill_each) {
  constexpr std::size_t kBots = 20'000;
  Rng rng(0x5eed);
  OverlayConfig config;
  config.dmin = 10;
  config.dmax = 10;
  OverlayNetwork net = OverlayNetwork::random_regular(kBots, 10, config, rng);
  DdsrPolicy p;
  p.dmin = 10;
  p.dmax = 10;
  DdsrEngine ddsr(net.graph_mut(), p, rng);
  StructuralTracker tracker(net);
  MetricsSnapshot s;
  for (const NodeId v : rng.sample(net.honest_nodes(), kCostDeletions)) {
    ddsr.remove_node(v);
    if (fill_each) tracker.fill(s, /*with_histogram=*/false);
  }
  tracker.fill(s, /*with_histogram=*/false);
  EXPECT_EQ(s.honest_alive, kBots - kCostDeletions);
  EXPECT_EQ(tracker.connectivity().splits(), 0u);
  return tracker.connectivity().search_steps();
}

TEST(TrackerCost, StepsPerHealedDeletionOnASeededOverlay) {
  // Deterministic, so the figure is a pure regression guard. A fill
  // after every deletion settles each deletion in one search: 23,647
  // steps, 59.1 per deletion. One search per lost edge read 483 per
  // deletion. The bound is 100.
  const double per_deletion =
      static_cast<double>(steps_of_seeded_deletions(/*fill_each=*/true)) /
      static_cast<double>(kCostDeletions);
  EXPECT_LE(per_deletion, 100.0);
}

TEST(TrackerCost, OneFillSettlesEveryDeletionAtOnce) {
  // The same deletions settled by one fill at the end: the queued
  // endpoints of all 400 deletions share one search, 1,746 steps or 4.4
  // per deletion. The bound is 10.
  const double per_deletion =
      static_cast<double>(steps_of_seeded_deletions(/*fill_each=*/false)) /
      static_cast<double>(kCostDeletions);
  EXPECT_LE(per_deletion, 10.0);
}

}  // namespace
}  // namespace onion::scenario

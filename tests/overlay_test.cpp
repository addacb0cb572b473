// Bot-level overlay tests: the declared-degree peering policy (the SOAP
// attack surface), rate limiting, proof-of-work accounting, refill and
// the NoN candidate pass it draws from, and containment metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/overlay.hpp"
#include "graph/generators.hpp"
#include "mitigation/soap.hpp"

namespace onion::core {
namespace {

using NodeId = OverlayNetwork::NodeId;

OverlayConfig band(std::size_t dmin, std::size_t dmax) {
  OverlayConfig cfg;
  cfg.dmin = dmin;
  cfg.dmax = dmax;
  return cfg;
}

TEST(Overlay, AcceptsWithCapacity) {
  Rng rng(1);
  OverlayNetwork net(band(2, 3), rng);
  const NodeId a = net.add_node(true);
  const NodeId b = net.add_node(true);
  EXPECT_EQ(net.request_peering(a, b), PeerDecision::AcceptedWithCapacity);
  EXPECT_TRUE(net.graph().has_edge(a, b));
}

TEST(Overlay, RejectsDuplicatePeering) {
  Rng rng(2);
  OverlayNetwork net(band(2, 3), rng);
  const NodeId a = net.add_node(true);
  const NodeId b = net.add_node(true);
  net.request_peering(a, b);
  EXPECT_EQ(net.request_peering(a, b), PeerDecision::Rejected);
}

TEST(Overlay, FullNodeEvictsHighestDeclaredForLowDeclared) {
  Rng rng(3);
  OverlayNetwork net(band(1, 2), rng);
  const NodeId t = net.add_node(true);
  const NodeId busy = net.add_node(true);   // will have high true degree
  const NodeId mid = net.add_node(true);
  const NodeId extra1 = net.add_node(true);
  const NodeId extra2 = net.add_node(true);
  // busy gets extra edges so its declared (true) degree is 3.
  net.request_peering(busy, extra1);
  net.request_peering(busy, extra2);
  net.request_peering(busy, t);
  net.request_peering(mid, t);  // t is now full (dmax=2)

  const NodeId sybil = net.add_node(false, /*declared=*/1);
  NodeId evicted = graph::kInvalidNode;
  EXPECT_EQ(net.request_peering(sybil, t, &evicted),
            PeerDecision::AcceptedEvicted);
  EXPECT_EQ(evicted, busy);
  EXPECT_TRUE(net.graph().has_edge(sybil, t));
  EXPECT_FALSE(net.graph().has_edge(busy, t))
      << "highest-declared peer evicted";
  EXPECT_TRUE(net.graph().has_edge(mid, t));
}

TEST(Overlay, FullNodeRejectsNonUndercuttingRequester) {
  Rng rng(4);
  OverlayNetwork net(band(1, 1), rng);
  const NodeId t = net.add_node(true);
  const NodeId peer = net.add_node(false, 2);
  net.request_peering(peer, t);
  // Requester declares 5 >= 2: no eviction.
  const NodeId pushy = net.add_node(false, 5);
  EXPECT_EQ(net.request_peering(pushy, t), PeerDecision::Rejected);
}

TEST(Overlay, SybilDeclaredDegreeIsTheLie) {
  Rng rng(5);
  OverlayNetwork net(band(1, 5), rng);
  const NodeId honest = net.add_node(true);
  const NodeId sybil = net.add_node(false, 2);
  // Sybil with 0 edges still declares 2; honest declares true degree.
  EXPECT_EQ(net.declared_degree(sybil), 2u);
  EXPECT_EQ(net.declared_degree(honest), 0u);
  net.request_peering(sybil, honest);
  EXPECT_EQ(net.declared_degree(sybil), 2u) << "lie is sticky";
  EXPECT_EQ(net.declared_degree(honest), 1u) << "honest tracks truth";
}

TEST(Overlay, RateLimitBlocksWithinRound) {
  Rng rng(6);
  OverlayConfig cfg = band(1, 10);
  cfg.rate_limit_per_round = 1;
  OverlayNetwork net(cfg, rng);
  const NodeId t = net.add_node(true);
  const NodeId a = net.add_node(true);
  const NodeId b = net.add_node(true);
  net.begin_round();
  EXPECT_EQ(net.request_peering(a, t), PeerDecision::AcceptedWithCapacity);
  EXPECT_EQ(net.request_peering(b, t), PeerDecision::RateLimited);
  net.begin_round();
  EXPECT_EQ(net.request_peering(b, t), PeerDecision::AcceptedWithCapacity);
}

TEST(Overlay, ProofOfWorkEscalatesPerTarget) {
  Rng rng(7);
  OverlayConfig cfg = band(1, 10);
  cfg.pow_base_cost = 1.0;
  cfg.pow_growth = 2.0;
  OverlayNetwork net(cfg, rng);
  const NodeId t = net.add_node(true);
  const NodeId s1 = net.add_node(false, 1);
  const NodeId s2 = net.add_node(false, 1);
  const NodeId s3 = net.add_node(false, 1);
  net.request_peering(s1, t);  // cost 1
  net.request_peering(s2, t);  // cost 2
  net.request_peering(s3, t);  // cost 4
  EXPECT_DOUBLE_EQ(net.sybil_work_spent(), 7.0);
  EXPECT_DOUBLE_EQ(net.honest_work_spent(), 0.0);
}

TEST(Overlay, HonestRefillPaysProofOfWorkToo) {
  // The defense's collateral cost (paper §VII-A trade-off).
  Rng rng(8);
  OverlayConfig cfg = band(2, 4);
  cfg.pow_base_cost = 1.0;
  OverlayNetwork net(cfg, rng);
  // Triangle plus a pendant that will need refill.
  const NodeId a = net.add_node(true);
  const NodeId b = net.add_node(true);
  const NodeId c = net.add_node(true);
  const NodeId d = net.add_node(true);
  net.request_peering(a, b);
  net.request_peering(b, c);
  net.request_peering(a, c);
  net.request_peering(d, a);
  net.drop_edge(d, a);
  net.request_peering(d, a);  // re-establish one link
  net.refill(d);              // d below dmin: asks NoN candidates
  EXPECT_GT(net.honest_work_spent(), 0.0);
}

TEST(Overlay, RefillUsesNoNOnly) {
  Rng rng(9);
  OverlayNetwork net(band(2, 4), rng);
  // Two disjoint pairs: refill cannot jump between components.
  const NodeId a = net.add_node(true);
  const NodeId b = net.add_node(true);
  const NodeId c = net.add_node(true);
  const NodeId d = net.add_node(true);
  net.request_peering(a, b);
  net.request_peering(c, d);
  net.refill(a);
  EXPECT_FALSE(net.graph().has_edge(a, c));
  EXPECT_FALSE(net.graph().has_edge(a, d));
  EXPECT_EQ(net.graph().degree(a), 1u) << "no NoN candidates available";
}

TEST(Overlay, RefillReachesDminThroughNoN) {
  Rng rng(10);
  OverlayNetwork net(band(2, 4), rng);
  const NodeId hub = net.add_node(true);
  const NodeId x = net.add_node(true);
  const NodeId y = net.add_node(true);
  net.request_peering(x, hub);
  net.request_peering(y, hub);
  // x's NoN contains y (through hub).
  net.refill(x);
  EXPECT_TRUE(net.graph().has_edge(x, y));
  EXPECT_EQ(net.graph().degree(x), 2u);
}

TEST(Overlay, ContainmentDetection) {
  Rng rng(11);
  OverlayNetwork net(band(1, 2), rng);
  const NodeId t = net.add_node(true);
  const NodeId friendly = net.add_node(true);
  net.request_peering(friendly, t);
  EXPECT_FALSE(net.contained(t));
  const NodeId s1 = net.add_node(false, 0);
  const NodeId s2 = net.add_node(false, 0);
  net.request_peering(s1, t);  // fills to dmax
  EXPECT_EQ(net.request_peering(s2, t), PeerDecision::AcceptedEvicted);
  // friendly (true degree 1... ) — force the state: drop any honest link.
  if (net.graph().has_edge(friendly, t)) net.drop_edge(friendly, t);
  EXPECT_TRUE(net.contained(t));
}

TEST(Overlay, IsolatedNodeCountsAsContained) {
  Rng rng(12);
  OverlayNetwork net(band(1, 2), rng);
  const NodeId t = net.add_node(true);
  EXPECT_TRUE(net.contained(t)) << "no peers = cut off from the botnet";
}

TEST(Overlay, HonestEdgesAndComponents) {
  Rng rng(13);
  OverlayNetwork net(band(1, 10), rng);
  const NodeId a = net.add_node(true);
  const NodeId b = net.add_node(true);
  const NodeId c = net.add_node(true);
  const NodeId s = net.add_node(false, 1);
  net.request_peering(a, b);
  net.request_peering(s, c);  // sybil-honest edge: not an honest edge
  EXPECT_EQ(net.honest_edges(), 1u);
  EXPECT_EQ(net.honest_components(), 2u);  // {a,b}, {c}
  net.request_peering(b, c);
  EXPECT_EQ(net.honest_components(), 1u);
}

TEST(Overlay, HonestComponentLabelsIgnoreSybilBridges) {
  // Two honest nodes joined only through a sybil are NOT connected for
  // probe purposes (sybils refuse to relay).
  Rng rng(14);
  OverlayNetwork net(band(1, 10), rng);
  const NodeId a = net.add_node(true);
  const NodeId b = net.add_node(true);
  const NodeId s = net.add_node(false, 1);
  net.request_peering(s, a);
  net.request_peering(s, b);
  const auto labels = net.honest_component_labels();
  EXPECT_NE(labels[a], labels[b]);
}

TEST(Overlay, RetireRemovesNode) {
  Rng rng(15);
  OverlayNetwork net(band(1, 10), rng);
  const NodeId a = net.add_node(true);
  const NodeId b = net.add_node(true);
  net.request_peering(a, b);
  net.retire(a);
  EXPECT_FALSE(net.alive(a));
  EXPECT_EQ(net.graph().degree(b), 0u);
}

TEST(Overlay, RandomRegularConstruction) {
  Rng rng(16);
  OverlayNetwork net =
      OverlayNetwork::random_regular(50, 4, band(4, 6), rng);
  EXPECT_EQ(net.graph().num_alive(), 50u);
  for (const NodeId u : net.honest_nodes())
    EXPECT_EQ(net.graph().degree(u), 4u);
  EXPECT_EQ(net.honest_components(), 1u);
}

TEST(Overlay, RandomRegularKeepsTheEdgeByEdgeCopyOrder) {
  // The adjacency-order contract in overlay.hpp: moving the generated
  // graph in must list every node's peers exactly as copying it edge by
  // edge into n fresh honest slots did. Refill and DDSR walk these lists,
  // so a flipped order moves every seeded campaign.
  for (const auto& [n, k, seed] :
       {std::tuple{10000u, 10u, 0xbe7cu}, std::tuple{500u, 5u, 3u},
        std::tuple{64u, 15u, 4u}, std::tuple{30u, 7u, 5u}}) {
    Rng rng(seed);
    const OverlayNetwork net =
        OverlayNetwork::random_regular(n, k, band(k, k), rng);

    Rng copy_rng(seed);
    OverlayNetwork copy(band(k, k), copy_rng);
    for (std::size_t i = 0; i < n; ++i) copy.add_node(/*honest=*/true);
    const graph::Graph topology = graph::random_regular(n, k, copy_rng);
    for (NodeId u = 0; u < n; ++u)
      for (const NodeId v : topology.neighbors(u))
        if (u < v) copy.graph_mut().add_edge(u, v);

    ASSERT_EQ(rng(), copy_rng()) << "n=" << n;
    ASSERT_EQ(net.graph().num_edges(), copy.graph().num_edges());
    for (NodeId u = 0; u < n; ++u) {
      ASSERT_EQ(net.neighbors(u), copy.neighbors(u))
          << "n=" << n << " u=" << u;
      ASSERT_TRUE(net.honest(u));
      ASSERT_EQ(net.declared_degree(u), k);
    }
  }
}

// ====================================================================
// NoN candidates: graph::non_candidates against the scan it replaced
// ====================================================================

/// The two-loop scan OverlayNetwork::refill and DdsrEngine::refill_node
/// each ran before graph::non_candidates: linear dedupe, has_edge tests.
/// Kept as the oracle the mark-bitmap pass must match element for element.
std::vector<NodeId> non_candidates_by_scan(const graph::Graph& g, NodeId v) {
  std::vector<NodeId> candidates;
  for (const NodeId n : g.neighbors(v)) {
    for (const NodeId nn : g.neighbors(n)) {
      if (nn == v || g.has_edge(v, nn)) continue;
      if (std::find(candidates.begin(), candidates.end(), nn) ==
          candidates.end())
        candidates.push_back(nn);
    }
  }
  return candidates;
}

/// Every alive slot's candidates, in order, and the scratch left clean.
void expect_non_candidates_match_scan(const graph::Graph& g,
                                      std::vector<std::uint8_t>& mark) {
  std::vector<NodeId> out{7, 7, 7};  // stale contents are replaced
  for (NodeId v = 0; v < g.capacity(); ++v) {
    if (!g.alive(v)) continue;
    graph::non_candidates(g, v, mark, out);
    ASSERT_EQ(out, non_candidates_by_scan(g, v)) << "node " << v;
    ASSERT_EQ(std::count(mark.begin(), mark.end(), 0),
              static_cast<std::ptrdiff_t>(mark.size()))
        << "marks left after node " << v;
  }
}

TEST(NonCandidates, MatchTheScanOnRandomGraphsWithChurn) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const std::size_t n = 20 + rng.uniform(120);
    graph::Graph g =
        graph::erdos_renyi(n, 2.0 + rng.uniform_real() * 8.0 / n, rng);
    std::vector<std::uint8_t> mark;  // grown by the first call
    expect_non_candidates_match_scan(g, mark);
    // Churn reorders adjacency lists (swap-erase) and leaves dead slots,
    // which the marks must skip and the scratch must still cover.
    for (int step = 0; step < 200; ++step) {
      const auto u = static_cast<NodeId>(rng.uniform(g.capacity()));
      const auto v = static_cast<NodeId>(rng.uniform(g.capacity()));
      if (!g.alive(u) || !g.alive(v)) continue;
      switch (rng.uniform(5)) {
        case 0:
          g.remove_node(u);
          break;
        case 1:
          g.remove_edge(u, v);
          break;
        case 2:
          g.add_edge(g.add_node(), u);
          break;
        default:
          g.add_edge(u, v);
          break;
      }
    }
    expect_non_candidates_match_scan(g, mark);
  }
}

TEST(NonCandidates, MatchTheScanOnSoapedOverlaysWithSybils) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    OverlayNetwork net =
        OverlayNetwork::random_regular(60, 4, band(4, 6), rng);
    mitigation::SoapConfig cfg;
    cfg.max_rounds = 15;
    cfg.requests_per_target_per_round = 2;
    mitigation::SoapCampaign campaign(net, cfg, rng);
    campaign.capture(static_cast<NodeId>(seed));
    std::vector<std::uint8_t> mark;
    for (int round = 0; round < 15 && campaign.step(); ++round) {
      if (round % 5 == 4) net.retire(static_cast<NodeId>(round + seed));
      expect_non_candidates_match_scan(net.graph(), mark);
    }
    ASSERT_GT(campaign.clones_created(), 0u) << "seed " << seed;
    ASSERT_GT(net.graph().capacity(), 60u);
  }
}

}  // namespace
}  // namespace onion::core

// Ablation bench for the DDSR design choices (core::DdsrPolicy):
//   repair rule   — pairwise clique (paper) vs random matching
//   prune victim  — highest-degree (paper) vs random
//   refill        — NoN refill on vs off
// Metric suite after a 50% gradual takedown of a 10-regular overlay:
// connectivity, largest component, degree stats, diameter, repair cost.
#include <cstdio>

#include "core/ddsr.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"

namespace {

using onion::Rng;
using onion::core::DdsrEngine;
using onion::core::DdsrPolicy;
using onion::graph::Graph;

constexpr std::size_t kNodes = 2000;
constexpr std::size_t kDegree = 10;
constexpr std::size_t kDeletions = kNodes / 2;

struct Outcome {
  bool connected = false;
  std::size_t components = 0;
  std::size_t largest = 0;
  double avg_degree = 0.0;
  std::size_t max_degree = 0;
  std::size_t diameter = 0;
  std::uint64_t repair_edges = 0;
  std::uint64_t prune_edges = 0;
  std::uint64_t refill_edges = 0;
};

Outcome run(DdsrPolicy policy, std::uint64_t seed) {
  Rng rng(seed);
  Graph g = onion::graph::random_regular(kNodes, kDegree, rng);
  DdsrEngine engine(g, policy, rng);
  for (std::size_t i = 0; i < kDeletions; ++i) {
    const auto alive = g.alive_nodes();
    engine.remove_node(
        alive[static_cast<std::size_t>(rng.uniform(alive.size()))]);
  }
  Outcome out;
  const auto comps = onion::graph::connected_components(g);
  out.connected = comps.count == 1;
  out.components = comps.count;
  out.largest = comps.largest();
  out.avg_degree = g.average_degree();
  for (const auto u : g.alive_nodes())
    out.max_degree = std::max(out.max_degree, g.degree(u));
  Rng mrng(seed ^ 0x99);
  out.diameter = onion::graph::diameter_double_sweep(g, 4, mrng);
  out.repair_edges = engine.stats().repair_edges_added;
  out.prune_edges = engine.stats().prune_edges_removed;
  out.refill_edges = engine.stats().refill_edges_added;
  return out;
}

void report(const char* name, const Outcome& o) {
  std::printf(
      "%-34s | conn=%-3s comps=%-4zu largest=%-4zu avgdeg=%5.2f "
      "maxdeg=%-3zu diam=%-2zu | repair=%llu prune=%llu refill=%llu\n",
      name, o.connected ? "yes" : "NO", o.components, o.largest,
      o.avg_degree, o.max_degree, o.diameter,
      static_cast<unsigned long long>(o.repair_edges),
      static_cast<unsigned long long>(o.prune_edges),
      static_cast<unsigned long long>(o.refill_edges));
}

}  // namespace

int main() {
  std::printf(
      "=== OnionBots ablation: DDSR policy choices ===\n"
      "%zu-node 10-regular overlay, %zu (50%%) gradual deletions.\n\n",
      kNodes, kDeletions);

  DdsrPolicy paper;
  paper.dmin = kDegree;
  paper.dmax = kDegree;

  {
    report("paper: pairwise+highest+refill", run(paper, 0xA0));
  }
  {
    DdsrPolicy p = paper;
    p.repair = DdsrPolicy::Repair::RandomMatch;
    report("repair=random-match", run(p, 0xA1));
  }
  {
    DdsrPolicy p = paper;
    p.victim = DdsrPolicy::Victim::Random;
    report("victim=random", run(p, 0xA2));
  }
  {
    DdsrPolicy p = paper;
    p.refill = false;
    report("refill=off", run(p, 0xA3));
  }
  {
    DdsrPolicy p = paper;
    p.prune = false;
    report("prune=off", run(p, 0xA4));
  }
  {
    DdsrPolicy p = paper;
    p.repair = DdsrPolicy::Repair::RandomMatch;
    p.refill = false;
    report("random-match+no-refill", run(p, 0xA5));
  }

  std::printf(
      "\nReading: the paper's combination holds one component with\n"
      "degree pinned at k; random matching repairs cheaper but leans on\n"
      "refill; disabling pruning lets degree (exposure) grow.\n");
  return 0;
}

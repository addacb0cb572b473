// Figure 7, full-stack edition: the SOAP walkthrough executed against a
// live botnet of message-passing bots over the simulated Tor network —
// clone hidden services, real peering wires, real evictions — head to
// head for the basic OnionBot and the §VII-A probing-defended variant.
// (bench/fig7_soap runs the paper's graph-level model; this binary
// confirms the same dynamics survive contact with the full protocol
// stack, latencies, rotation, and maintenance included.)
//
// Run: build/bench_fig7_soap_live (no arguments). Exits 1 when a series
// misses the paper's shape; the tolerances are printed with the expected
// shape below.
#include <algorithm>
#include <cstdio>

#include "graph/metrics.hpp"
#include "mitigation/live_soap.hpp"

namespace {

using namespace onion;

constexpr std::size_t kBots = 20;

core::Botnet::Params params(bool probing) {
  core::Botnet::Params p;
  p.num_bots = kBots;
  p.initial_degree = 4;
  p.seed = 0xf177;
  p.tor.num_relays = 24;
  p.bot.dmin = 3;
  p.bot.dmax = 5;
  p.bot.heartbeat_interval = 60 * kSecond;
  p.bot.non_share_interval = 3 * kMinute;
  p.bot.probe_peers = probing;
  return p;
}

// What the shape check reads from one series.
struct Series {
  int full_containment_round = -1;  // first round with every bot contained
  std::size_t most_contained = 0;
  std::size_t components = 0;  // honest overlay after the last round
  std::size_t reach = 0;
};

Series run_series(bool probing) {
  Series out;
  core::Botnet net(params(probing));
  mitigation::LiveSoapCampaign campaign(net, {});
  campaign.capture(0);

  std::printf("# series defense=%s\n", probing ? "probing" : "none");
  std::printf(
      "round,discovered,clones,acceptances,contained,honest_edges\n");
  for (int round = 0; round <= 24; ++round) {
    const graph::Graph overlay = net.overlay_snapshot();
    std::printf("%d,%zu,%zu,%zu,%zu,%zu\n", round,
                campaign.discovered().size(), campaign.clones_created(),
                campaign.acceptances(), campaign.contained_count(),
                overlay.num_edges());
    out.most_contained =
        std::max(out.most_contained, campaign.contained_count());
    if (out.full_containment_round < 0 &&
        campaign.contained_count() == net.num_bots())
      out.full_containment_round = round;
    campaign.step();
    net.run_for(4 * kMinute);
  }
  out.components =
      graph::connected_components(net.overlay_snapshot()).count;

  // Post-campaign broadcast reach.
  core::Command cmd;
  cmd.type = core::CommandType::Ddos;
  net.master().broadcast(cmd, 2);
  net.run_for(15 * kMinute);
  out.reach = net.count_executed(core::CommandType::Ddos);
  std::printf("broadcast reach after campaign: %zu/%zu\n\n", out.reach,
              net.num_bots());
  return out;
}

// Each failed tolerance prints one line naming the series and value.
bool check(const Series& none, const Series& probing) {
  bool ok = true;
  const auto expect = [&](bool holds, const char* what, long value) {
    if (holds) return;
    std::fprintf(stderr, "check failed: %s (got %ld)\n", what, value);
    ok = false;
  };
  expect(none.full_containment_round >= 0 &&
             none.full_containment_round <= 8,
         "defense=none: every bot contained by round 8",
         none.full_containment_round);
  expect(none.reach <= kBots / 4, "defense=none: broadcast reach <= n/4",
         static_cast<long>(none.reach));
  expect(probing.most_contained <= 1,
         "defense=probing: at most 1 bot contained in any round",
         static_cast<long>(probing.most_contained));
  expect(probing.components == 1,
         "defense=probing: honest overlay is one component",
         static_cast<long>(probing.components));
  expect(probing.reach == kBots, "defense=probing: broadcast reaches all n",
         static_cast<long>(probing.reach));
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr,
                 "bench_fig7_soap_live: unknown argument '%s' "
                 "(takes none)\n",
                 argv[1]);
    return 2;
  }
  std::printf(
      "=== OnionBots reproduction: Figure 7 on the full stack ===\n"
      "Clone hidden services soaping a live 20-bot OnionBot network over\n"
      "simulated Tor; one round = one clone wave + 4 virtual minutes.\n\n");
  const Series none = run_series(/*probing=*/false);
  const Series probing = run_series(/*probing=*/true);
  std::printf(
      "Expected shape (paper SS VI-B, VII-A): without defense, contained\n"
      "count climbs to (nearly) the whole botnet and broadcast reach\n"
      "collapses; with the probing defense the same campaign stalls and\n"
      "the botnet keeps executing commands.\n"
      "Checked tolerances: defense=none contains every bot by round 8\n"
      "and reaches at most n/4 bots; defense=probing never contains more\n"
      "than 1 bot in a round, leaves the honest overlay one component\n"
      "and reaches all n bots.\n");
  return check(none, probing) ? 0 : 1;
}

// Live-stack SOAP tests (paper §VI-B end to end): real clone hidden
// services containing a live message-passing botnet over simulated Tor —
// and the §VII-A probing defense repelling the same campaign.
#include <gtest/gtest.h>

#include "crypto/elligator_sim.hpp"
#include "graph/metrics.hpp"
#include "mitigation/live_soap.hpp"

namespace onion::mitigation {
namespace {

core::Botnet::Params live_params(bool probing, std::uint64_t seed = 21) {
  core::Botnet::Params p;
  p.num_bots = 14;
  p.initial_degree = 4;
  p.seed = seed;
  p.tor.num_relays = 24;
  p.bot.dmin = 3;
  p.bot.dmax = 5;
  p.bot.heartbeat_interval = 60 * kSecond;
  p.bot.non_share_interval = 3 * kMinute;
  p.bot.probe_peers = probing;
  return p;
}

TEST(LiveSoap, CaptureSeedsDiscoveryFromBotMemory) {
  core::Botnet net(live_params(false));
  LiveSoapCampaign campaign(net, {});
  campaign.capture(0);
  // The captured bot knows its own address, its peers, and (via NoN)
  // its peers' peers.
  EXPECT_GE(campaign.discovered().size(),
            1 + net.bot(0).peers().size());
  EXPECT_TRUE(campaign.discovered().count(net.bot(0).address()) > 0);
}

TEST(LiveSoap, ClonesGetAcceptedByEvictingBenignPeers) {
  core::Botnet net(live_params(false));
  LiveSoapCampaign campaign(net, {});
  campaign.capture(0);
  const std::size_t sent = campaign.step();
  EXPECT_GT(sent, 0u);
  net.run_for(5 * kMinute);
  EXPECT_GT(campaign.acceptances(), 0u)
      << "low-declared-degree clones win the acceptance rule";
}

TEST(LiveSoap, CampaignContainsTheBasicBotnet) {
  core::Botnet net(live_params(false));
  LiveSoapCampaign campaign(net, {});
  campaign.capture(0);
  for (int round = 0; round < 25; ++round) {
    campaign.step();
    net.run_for(4 * kMinute);
  }
  // The paper's Figure 7 endgame: (nearly) every bot clone-ringed and
  // the honest overlay shredded.
  EXPECT_GE(campaign.contained_count(), net.num_bots() - 2)
      << "basic OnionBots fall to SOAP";
  const graph::Graph overlay = net.overlay_snapshot();
  EXPECT_LT(overlay.num_edges(), 4u)
      << "honest overlay essentially gone";

  // Broadcast reach collapses: injected commands die inside the clone
  // ring. (Fanout lands on contained bots whose only links are clones.)
  core::Command cmd;
  cmd.type = core::CommandType::Ddos;
  net.master().broadcast(cmd, 2);
  net.run_for(15 * kMinute);
  EXPECT_LT(net.count_executed(core::CommandType::Ddos), net.num_bots())
      << "the flood no longer reaches the whole botnet";
}

TEST(LiveSoap, ProbingDefenseRepelsTheSameCampaign) {
  core::Botnet net(live_params(true));  // §VII-A probing ON
  LiveSoapCampaign campaign(net, {});
  campaign.capture(0);
  for (int round = 0; round < 25; ++round) {
    campaign.step();
    net.run_for(4 * kMinute);
  }
  EXPECT_LT(campaign.contained_count(), net.num_bots() / 2)
      << "probing drops clones every heartbeat";
  // The botnet still functions: a broadcast reaches (almost) everyone.
  core::Command cmd;
  cmd.type = core::CommandType::Compute;
  net.master().broadcast(cmd, 3);
  net.run_for(15 * kMinute);
  EXPECT_GE(net.count_executed(core::CommandType::Compute),
            net.num_bots() - 2)
      << "the probed botnet keeps operating under the same campaign";
}

TEST(LiveSoap, ProbingCostsNoHonestLink) {
  // Under probing a full bot evicts for a newcomer only once it answers
  // the challenge, so clones, which never answer, cannot thin the honest
  // overlay: it keeps every initial link and stays one component.
  core::Botnet net(live_params(true));
  const std::size_t initial = net.overlay_snapshot().num_edges();
  LiveSoapCampaign campaign(net, {});
  campaign.capture(0);
  for (int round = 0; round < 25; ++round) {
    campaign.step();
    net.run_for(4 * kMinute);
    ASSERT_GE(net.overlay_snapshot().num_edges(), initial)
        << "round " << round;
  }
  EXPECT_GT(campaign.acceptances(), 0u) << "clones were accepted";
  EXPECT_TRUE(graph::is_connected(net.overlay_snapshot()));
}

TEST(LiveSoap, ClonesNeverRelayBroadcasts) {
  // A broadcast envelope delivered straight to a clone dies there: the
  // clone answers blandly and forwards nothing, so no bot ever relays
  // (legal liability, paper SS VII-B).
  core::Botnet net(live_params(false));
  LiveSoapCampaign campaign(net, {});
  campaign.capture(0);
  campaign.step();
  net.run_for(5 * kMinute);
  ASSERT_GT(campaign.clones_created(), 0u);

  // Find one clone address from the campaign's own bookkeeping.
  tor::OnionAddress clone_addr;
  bool found = false;
  for (std::size_t i = 0; i < net.num_bots() && !found; ++i) {
    for (const auto& [addr, info] : net.bot(i).peers()) {
      if (campaign.is_clone(addr)) {
        clone_addr = addr;
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found) << "some bot peers with a clone by now";

  Rng rng(9);
  const Bytes envelope = crypto::uniform_encode(
      net.master().group_key(), to_bytes("not-a-real-command"), rng);
  const tor::EndpointId sender = net.tor().create_endpoint();
  tor::ConnectResult outcome;
  net.tor().connect_and_send(
      sender, clone_addr, core::encode_broadcast(envelope),
      [&](const tor::ConnectResult& r) { outcome = r; });
  net.run_for(5 * kMinute);
  ASSERT_TRUE(outcome.ok) << "the clone answered";
  std::size_t total_relays = 0;
  for (std::size_t i = 0; i < net.num_bots(); ++i)
    total_relays += net.bot(i).broadcasts_relayed();
  EXPECT_EQ(total_relays, 0u) << "the envelope never escaped the clone";
}

TEST(LiveSoap, ChallengeAnswerRequiresGroupKey) {
  // Unit-level check of the §VII-A primitive the defense rides on.
  Rng rng(3);
  Bytes group_key(32, 0x42);
  Bytes nonce(16, 0x07);
  const Bytes good = core::probe_challenge_answer(group_key, nonce);
  Bytes other_key(32, 0x43);
  const Bytes bad = core::probe_challenge_answer(other_key, nonce);
  EXPECT_NE(good, bad);
  EXPECT_EQ(good.size(), 8u);
  // And the envelope hides the nonce from non-holders.
  const Bytes envelope = crypto::uniform_encode(group_key, nonce, rng);
  EXPECT_FALSE(crypto::uniform_decode(other_key, envelope).has_value());
}

}  // namespace
}  // namespace onion::mitigation

// One seed of the cross-layer DDSR property check (tests/cross_layer.hpp):
// the message-level botnet and the graph-level engine heal the same kill
// sequence, and both keep every bot in band and one component.
// tests/scale_cross_layer_test.cpp sweeps seeds on a larger botnet.
#include <gtest/gtest.h>

#include <cstdio>

#include "cross_layer.hpp"

namespace onion::core {
namespace {

TEST(CrossLayer, BothLayersHealOneKillSequence) {
  const CrossLayerOutcome out = run_cross_layer({.seed = 1});
  EXPECT_EQ(out.bots.components, 1u);
  EXPECT_EQ(out.ddsr.components, 1u);
  EXPECT_EQ(out.bots.out_of_band, std::vector<graph::NodeId>{});
  EXPECT_EQ(out.ddsr.out_of_band, std::vector<graph::NodeId>{});
  EXPECT_EQ(out.short_on_mutual_links, 0u);
  std::printf("%zu half-open entries, %zu bots short on mutual links\n",
              out.half_open, out.short_on_mutual_links);
  RecordProperty("half_open", static_cast<int>(out.half_open));
}

}  // namespace
}  // namespace onion::core

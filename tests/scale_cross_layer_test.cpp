// The cross-layer DDSR property check (tests/cross_layer.hpp) over a seed
// sweep: 40 bots of degree 6, band [4, 8], 14 kills 20 minutes apart,
// then an hour of quiet. Half-open entries are printed per seed.
#include <gtest/gtest.h>

#include <cstdio>

#include "cross_layer.hpp"

namespace onion::core {
namespace {

class CrossLayerSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossLayerSweep, BothLayersHealTheSameKills) {
#ifndef NDEBUG
  // One seed takes 8-10 minutes under ASan/UBSan, past the sanitized
  // tier's 600 s ctest timeout; Release CI runs the sweep under the
  // scale label, and tests/cross_layer_test.cpp keeps one seed sanitized.
  GTEST_SKIP() << "the 40-bot seed sweep runs in Release (NDEBUG) builds only";
#endif
  const CrossLayerOutcome out = run_cross_layer(
      {.seed = GetParam(), .bots = 40, .kills = 14});
  EXPECT_EQ(out.bots.components, 1u);
  EXPECT_EQ(out.ddsr.components, 1u);
  EXPECT_EQ(out.bots.out_of_band, std::vector<graph::NodeId>{});
  EXPECT_EQ(out.ddsr.out_of_band, std::vector<graph::NodeId>{});
  EXPECT_EQ(out.short_on_mutual_links, 0u);
  std::printf(
      "seed %llu: %zu half-open entries, %zu bots short on mutual links\n",
      static_cast<unsigned long long>(GetParam()), out.half_open,
      out.short_on_mutual_links);
  RecordProperty("half_open", static_cast<int>(out.half_open));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossLayerSweep,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace onion::core

// Scale smoke tier (ctest label "scale"; excluded from the default PR
// job): 10k/50k/500k-node campaigns with membership churn and takedown
// waves must complete end-to-end, keep the surviving core connected,
// and finish inside a generous wall-clock budget. Catches the
// accidental O(n^2)-per-snapshot regressions the small-n tests cannot
// see.
#include <gtest/gtest.h>

#include <chrono>

#include "scenario/engine.hpp"

namespace onion::scenario {
namespace {

ScenarioSpec scale_spec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.initial_size = 10'000;
  spec.degree = 10;
  spec.horizon = kHour;
  // 5% of the overlay churns over the hour, both directions.
  spec.churn.joins_per_hour = 500.0;
  spec.churn.leaves_per_hour = 500.0;
  AttackPhase takedown;
  takedown.kind = AttackKind::RandomTakedown;
  takedown.start = 15 * kMinute;
  takedown.stop = 45 * kMinute;
  takedown.takedowns_per_hour = 600.0;
  spec.attacks.push_back(takedown);
  spec.metrics.period = 5 * kMinute;
  return spec;
}

TEST(ScaleCampaign, TenThousandNodeChurnCampaignStaysHealthy) {
  const ScenarioSpec spec = scale_spec(0xbeef);
  const auto wall_start = std::chrono::steady_clock::now();
  MemorySink sink;
  CampaignEngine engine(spec, sink);
  const MetricsSnapshot end = engine.run();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // Completed: ran to the horizon with the full snapshot cadence.
  EXPECT_EQ(end.time, spec.horizon);
  ASSERT_EQ(sink.snapshots().size(), 13u);

  // The campaign actually exercised churn and the takedown wave.
  EXPECT_GT(end.joins, 300u);
  EXPECT_GT(end.leaves, 300u);
  EXPECT_GT(end.takedowns, 150u);

  // Self-healing holds the surviving core together throughout.
  for (const MetricsSnapshot& s : sink.snapshots()) {
    EXPECT_GE(s.largest_fraction, 0.99)
        << "surviving core fragmented at t=" << s.time;
  }
  EXPECT_GT(end.honest_alive, 9000u);

  // Generous wall-clock budget (measured ~1s in Release; the ctest
  // timeout of 600s is the hard backstop).
  EXPECT_LT(wall_seconds, 120.0);
}

TEST(ScaleCampaign, TenThousandNodeReplayIsDeterministic) {
  HashSink first;
  CampaignEngine(scale_spec(0xfeed), first).run();
  HashSink second;
  CampaignEngine(scale_spec(0xfeed), second).run();
  EXPECT_EQ(first.hex_digest(), second.hex_digest());
}

TEST(ScaleCampaign, ThreeWaveAdaptiveParetoCampaignAtTenThousand) {
  // The full new vocabulary at scale: heavy-tailed per-bot sessions
  // (Pareto: ~45% of the initial population churns out inside the
  // hour), a three-wave adaptive plan with quiet healing gaps, and
  // per-wave victim attribution — run twice, fingerprints must match.
  ScenarioSpec spec;
  spec.seed = 0x3a3e;
  spec.initial_size = 10'000;
  spec.degree = 10;
  spec.horizon = kHour;
  spec.churn.joins_per_hour = 500.0;
  spec.churn.session_leaves = true;
  spec.churn.session.model = SessionModel::Pareto;
  spec.churn.session.mean_hours = 2.0;
  spec.churn.session.pareto_alpha = 1.5;
  AttackWave wave;
  wave.attack.kind = AttackKind::AdaptiveTakedown;
  wave.attack.rank = RankMetric::SampledBetweenness;
  wave.attack.refresh_period = 2 * kMinute;
  wave.attack.betweenness_pivots = 16;
  wave.attack.takedowns_per_hour = 600.0;
  wave.duration = 10 * kMinute;
  wave.quiet_after = 5 * kMinute;
  spec.waves.start = 5 * kMinute;
  spec.waves.waves.assign(3, wave);
  spec.metrics.period = 5 * kMinute;

  const auto wall_start = std::chrono::steady_clock::now();
  MemorySink memory;
  HashSink first;
  FanoutSink fanout({&memory, &first});
  CampaignEngine engine(spec, fanout);
  const MetricsSnapshot end = engine.run();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  EXPECT_EQ(end.time, spec.horizon);
  ASSERT_EQ(memory.snapshots().size(), 13u);
  // The heavy tail actually churned: Pareto(mean 2 h, alpha 1.5) has
  // x_m = 2/3 h, so P(session < 1 h) ~ 46% of the initial population.
  EXPECT_GT(end.leaves, 3000u);
  EXPECT_GT(end.joins, 300u);
  // All three waves landed, and every victim is attributed to one.
  ASSERT_EQ(end.wave_takedowns.size(), 3u);
  std::uint64_t attributed = 0;
  for (const std::uint64_t w : end.wave_takedowns) {
    EXPECT_GT(w, 50u);
    attributed += w;
  }
  EXPECT_EQ(attributed, end.takedowns);
  EXPECT_GT(end.takedowns, 200u);
  // Self-healing keeps the shrinking core together under the combined
  // churn + adaptive assault.
  for (const MetricsSnapshot& s : memory.snapshots())
    EXPECT_GE(s.largest_fraction, 0.99)
        << "surviving core fragmented at t=" << s.time;

  // Byte-identical replay at scale.
  HashSink second;
  CampaignEngine(spec, second).run();
  EXPECT_EQ(first.hex_digest(), second.hex_digest());

#ifdef NDEBUG
  // Generous wall-clock budget (measured ~2s in Release; sanitized
  // Debug builds lean on the 600s ctest timeout instead).
  EXPECT_LT(wall_seconds, 120.0);
#else
  (void)wall_seconds;
#endif
}

TEST(ScaleCampaign, FiftyThousandNodeDenseCadenceSmoke) {
  // The ROADMAP's 50k tier, at a snapshot cadence (one per 5 simulated
  // seconds — 721 snapshots) that the per-snapshot O((n+m)·α) sweep made
  // pointless to run before the incremental tracker: structural
  // telemetry now costs O(changes) regardless of whether the window
  // contained deletions (fully-dynamic connectivity).
  ScenarioSpec spec;
  spec.seed = 0x50'000;
  spec.initial_size = 50'000;
  spec.degree = 10;
  spec.horizon = kHour;
  // 2% churn over the hour plus a mid-campaign takedown wave.
  spec.churn.joins_per_hour = 1000.0;
  spec.churn.leaves_per_hour = 1000.0;
  AttackPhase takedown;
  takedown.kind = AttackKind::RandomTakedown;
  takedown.start = 20 * kMinute;
  takedown.stop = 40 * kMinute;
  takedown.takedowns_per_hour = 1500.0;
  spec.attacks.push_back(takedown);
  spec.metrics.period = 5 * kSecond;

  const auto wall_start = std::chrono::steady_clock::now();
  MemorySink sink;
  CampaignEngine engine(spec, sink);
  const MetricsSnapshot end = engine.run();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  EXPECT_EQ(end.time, spec.horizon);
  ASSERT_EQ(sink.snapshots().size(), 721u);
  EXPECT_GT(end.joins, 700u);
  EXPECT_GT(end.leaves, 700u);
  EXPECT_GT(end.takedowns, 350u);
  EXPECT_GT(end.honest_alive, 48'000u);
  for (const MetricsSnapshot& s : sink.snapshots())
    EXPECT_GE(s.largest_fraction, 0.99)
        << "surviving core fragmented at t=" << s.time;

#ifdef NDEBUG
  // Generous wall-clock budget (measured ~3s in Release). Sanitized
  // Debug builds slow the 50k campaign 20-50x on loaded runners, so
  // there the ctest timeout of 600s is the only backstop.
  EXPECT_LT(wall_seconds, 240.0);
#else
  (void)wall_seconds;
#endif
}

TEST(ScaleCampaign, HalfMillionNodeLeaveHeavyDenseCadenceSmoke) {
  // The 500k tier: the same spec bench_report.cpp prints the
  // campaign_500k golden for (seed 0x5ca1e, ten minutes at a 1 s
  // cadence, 18000 leaves/h plus a 6000/h takedown wave). Every one of
  // the ~600 snapshot windows contains deletions — the exact regime
  // where the old hybrid tracker re-ran a full O(n+m) component rebuild
  // per snapshot (~600 × ~59 ms ≈ 35 s of pure rebuild at this size).
#ifndef NDEBUG
  // Building and healing a 500k-node overlay under ASan/UBSan blows
  // well past the sanitized tier's wall budget; Release CI runs this
  // smoke under the scale label instead.
  GTEST_SKIP() << "500k smoke runs in Release (NDEBUG) builds only";
#else
  ScenarioSpec spec;
  spec.seed = 0x5ca1e;
  spec.initial_size = 500'000;
  spec.degree = 10;
  spec.horizon = 10 * kMinute;
  spec.churn.joins_per_hour = 600.0;
  spec.churn.leaves_per_hour = 18'000.0;
  AttackPhase takedown;
  takedown.kind = AttackKind::RandomTakedown;
  takedown.start = 2 * kMinute;
  takedown.stop = 8 * kMinute;
  takedown.takedowns_per_hour = 6'000.0;
  spec.attacks.push_back(takedown);
  spec.metrics.period = kSecond;

  const auto wall_start = std::chrono::steady_clock::now();
  MemorySink sink;
  CampaignEngine engine(spec, sink);
  const MetricsSnapshot end = engine.run();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  EXPECT_EQ(end.time, spec.horizon);
  ASSERT_EQ(sink.snapshots().size(), 601u);
  // Leave-heavy: ~3000 leaves and ~600 takedowns landed in 10 minutes.
  EXPECT_GT(end.leaves, 2000u);
  EXPECT_GT(end.takedowns, 400u);
  EXPECT_GT(end.honest_alive, 490'000u);
  // Self-healing holds the surviving core together throughout.
  for (const MetricsSnapshot& s : sink.snapshots())
    EXPECT_GE(s.largest_fraction, 0.99)
        << "surviving core fragmented at t=" << s.time;

  // Generous wall-clock budget (measured ~7s in Release; the ctest
  // timeout of 600s is the hard backstop).
  EXPECT_LT(wall_seconds, 300.0);
#endif
}

}  // namespace
}  // namespace onion::scenario

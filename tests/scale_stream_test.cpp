// Scale smoke for the streaming trace/replay pipeline (ctest label
// "scale"): the pinned 10k campaign spools to disk and replays through
// the TraceSource API byte-identically to the in-memory path (the PR's
// acceptance criterion), and the 500k-node campaign records, streams
// back, and sweeps a replay-level grid with peak RSS bounded by the
// population tables — never the event log or the synthesized capture.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "detection/replay.hpp"
#include "detection/replay_grid.hpp"
#include "detection/telemetry.hpp"
#include "scenario/engine.hpp"
#include "scenario/trace_io.hpp"

namespace onion::detection {
namespace {

using scenario::AttackKind;
using scenario::AttackPhase;
using scenario::CampaignEngine;
using scenario::CampaignTrace;
using scenario::ScenarioSpec;
using scenario::trace_io::TraceReader;
using scenario::trace_io::TraceWriter;
using scenario::trace_io::TraceWriterConfig;

/// High-water RSS of this process in KB (Linux ru_maxrss units). Only
/// the Release-only 500k test calls this and half_million_spec().
[[maybe_unused]] std::size_t peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::size_t>(usage.ru_maxrss);
}

// The pinned 10k campaign (same shape as tests/scale_replay_test.cpp).
ScenarioSpec ten_k_spec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.initial_size = 10'000;
  spec.degree = 10;
  spec.horizon = kHour;
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

// The pinned 500k campaign (same spec as tests/scale_test.cpp's
// half-million smoke and bench_report's campaign_500k).
[[maybe_unused]] ScenarioSpec half_million_spec() {
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
  return spec;
}

ReplayConfig pinned_replay() {
  ReplayConfig rc;
  rc.seed = 0x5ca1e;
  rc.benign_web = 500;
  rc.benign_tor = 100;
  rc.centralized_bots = 50;
  rc.dga_bots = 50;
  rc.fastflux_bots = 50;
  rc.p2p_bots = 50;
  rc.onion_mean_gap = kMinute;
  return rc;
}

TEST(ScaleStream, TenThousandBotStreamedReplayIsByteIdentical) {
  const auto wall_start = std::chrono::steady_clock::now();
  const ScenarioSpec spec = ten_k_spec(0xbeef);

  CampaignTrace campaign;
  CampaignEngine(spec, campaign, &campaign).run();

  const std::string path = ::testing::TempDir() + "scale_10k.otrace";
  {
    TraceWriter writer(path);
    CampaignEngine(spec, writer, &writer).run();
    writer.finish();
  }

  const TraceReader reader(path);
  EXPECT_EQ(reader.fingerprint(), campaign.fingerprint());
  EXPECT_EQ(reader.event_count(), campaign.events().size());

  // The acceptance criterion: replaying through the streamed source
  // produces a TrafficTrace byte-identical to the in-memory path.
  const ReplayResult memory = replay_trace(campaign, pinned_replay());
  const ReplayResult streamed = replay_trace(reader, pinned_replay());
  EXPECT_EQ(fingerprint(streamed.trace), fingerprint(memory.trace));
  EXPECT_GT(streamed.trace.flows.size(), 100'000u);

  std::printf("scale_10k trace_file_bytes=%zu events=%llu wall=%.1fs\n",
              reader.file_bytes(),
              static_cast<unsigned long long>(reader.event_count()),
              std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - wall_start)
                  .count());
  std::remove(path.c_str());
}

TEST(ScaleStream, HalfMillionBotReplayGridStaysInWindowMemory) {
#ifndef NDEBUG
  // The 500k overlay under ASan/UBSan blows past the sanitized tier's
  // wall budget (and ru_maxrss measures the sanitizer's shadow, not the
  // pipeline); Release CI runs this under the scale label instead.
  GTEST_SKIP() << "500k streamed grid runs in Release (NDEBUG) builds only";
#else
  const auto wall_start = std::chrono::steady_clock::now();
  const std::string path = ::testing::TempDir() + "scale_500k.otrace";
  {
    // Record straight to disk: the event log never exists in memory.
    TraceWriter writer(path);
    CampaignEngine(half_million_spec(), writer, &writer).run();
    writer.finish();
  }

  // Baseline after the recorder: the engine's 500k-node overlay sets
  // the process high-water mark; the streamed sweep must stay inside
  // an O(populations) allowance above it, never O(events) or O(flows).
  const std::size_t baseline_kb = peak_rss_kb();

  const TraceReader reader(path);
  EXPECT_GT(reader.event_count(), 1000u);

  ReplayGridConfig config;
  config.replay_seeds = {1};
  config.replay = pinned_replay();
  config.flow_size_cv = {0.5};
  config.flow_gap_cv = {0.7};
  config.tor_min_flows = {3};
  const ReplayGridReport report = ReplayGrid(config).run(reader);

  const std::size_t peak_kb = peak_rss_kb();
  const std::size_t delta_kb = peak_kb - baseline_kb;

  // Every half-million campaign bots heartbeat over Tor for ten
  // simulated minutes: millions of flows streamed and scored...
  ASSERT_FALSE(report.points.empty());
  EXPECT_GT(report.points.front().flows, 1'000'000u);
  for (const ReplayGridPoint& p : report.points)
    EXPECT_EQ(p.flows, report.points.front().flows);
  // ...while the capture never materializes: the sweep's RSS growth is
  // bounded by the population tables (batch replay would hold every
  // flow record — hundreds of MB — before scoring even starts).
  EXPECT_LT(delta_kb, 256u * 1024u)
      << "streamed grid grew RSS by " << delta_kb << " KB";

  std::printf(
      "scale_500k trace_file_bytes=%zu events=%llu grid_points=%zu "
      "flows=%llu replay_rss_delta_kb=%zu wall=%.1fs\n",
      reader.file_bytes(),
      static_cast<unsigned long long>(reader.event_count()),
      report.points.size(),
      static_cast<unsigned long long>(report.points.front().flows),
      delta_kb,
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count());
  std::remove(path.c_str());
#endif
}

}  // namespace
}  // namespace onion::detection

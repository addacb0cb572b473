// Streamed vs in-memory trace/replay cost on the pinned 10k campaign:
// what recording to disk adds over the in-memory tap, and what the
// O(window) streamed replay saves against materializing the full
// TrafficTrace before scoring.
//
// Four timed legs over the same campaign (seed 0xbeef, one hour, 5%
// churn + takedown wave — the scale_* test spec):
//
//   record_memory   engine -> CampaignTrace (the PR-8 baseline)
//   record_disk     engine -> trace_io::TraceWriter (chunked frames,
//                   SHA-256 per chunk, atomic publish)
//   replay_batch    TraceReader -> replay_trace (the streaming
//                   synthesizer into a collecting sink) -> RocSweep-sized
//                   FlowScorer over the materialized trace
//   replay_stream   TraceReader -> replay_trace_streaming -> the same
//                   FlowScorer, no TrafficTrace ever built
//
// Both legs run one synthesizer, so the bench exits 1 if their flow
// counts differ.
//
// Peak-RSS deltas are printed per leg; the streamed leg's delta is the
// number the 500k tier pins under 256 MB (tests/scale_stream_test.cpp).
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "detection/replay.hpp"
#include "detection/replay_grid.hpp"
#include "detection/telemetry.hpp"
#include "scenario/engine.hpp"
#include "scenario/trace_io.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::size_t peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::size_t>(usage.ru_maxrss);
}

}  // namespace

int main() {
  using namespace onion;
  using namespace onion::detection;
  using namespace onion::scenario;

  ScenarioSpec spec;
  spec.seed = 0xbeef;
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

  ReplayConfig rc;
  rc.seed = 0x5ca1e;
  rc.benign_web = 500;
  rc.benign_tor = 100;
  rc.centralized_bots = 50;
  rc.dga_bots = 50;
  rc.fastflux_bots = 50;
  rc.p2p_bots = 50;
  rc.onion_mean_gap = kMinute;

  FlowScorerConfig scorer_config;
  for (const double size_cv : {0.1, 0.25, 0.5, 0.75})
    for (const double gap_cv : {0.2, 0.45, 0.7, 1.0}) {
      FlowDetectorConfig c;
      c.size_cv_threshold = size_cv;
      c.gap_cv_threshold = gap_cv;
      scorer_config.beacon_thresholds.push_back(c);
    }
  scorer_config.tor_min_flows = {1, 3, 10, 30};

  std::printf("=== Streamed vs in-memory trace/replay, pinned 10k ===\n\n");
  std::printf("  %-14s %10s %14s %16s\n", "leg", "wall_s", "rss_delta_kb",
              "output");

  // --- record: in-memory tap -------------------------------------------
  auto start = Clock::now();
  std::size_t rss = peak_rss_kb();
  CampaignTrace campaign;
  CampaignEngine(spec, campaign, &campaign).run();
  std::printf("  %-14s %10.2f %14zu %13zu ev\n", "record_memory",
              seconds_since(start), peak_rss_kb() - rss,
              campaign.events().size());

  // --- record: straight to disk ----------------------------------------
  const std::string path = "trace_stream_bench.otrace";
  start = Clock::now();
  rss = peak_rss_kb();
  std::size_t file_bytes = 0;
  {
    trace_io::TraceWriter writer(path);
    CampaignEngine(spec, writer, &writer).run();
    writer.finish();
    file_bytes = writer.bytes_written();
  }
  std::printf("  %-14s %10.2f %14zu %12zu B\n", "record_disk",
              seconds_since(start), peak_rss_kb() - rss, file_bytes);

  const trace_io::TraceReader reader(path);

  // --- replay: batch (materialized TrafficTrace) -----------------------
  start = Clock::now();
  rss = peak_rss_kb();
  const ReplayResult batch = replay_trace(reader, rc);
  FlowScorer batch_scorer(scorer_config);
  feed_trace(batch.trace, batch_scorer);
  batch_scorer.finish();
  std::printf("  %-14s %10.2f %14zu %11zu fl\n", "replay_batch",
              seconds_since(start), peak_rss_kb() - rss,
              static_cast<std::size_t>(batch_scorer.flows_scored()));

  // --- replay: streamed (no TrafficTrace) ------------------------------
  start = Clock::now();
  rss = peak_rss_kb();
  FlowScorer stream_scorer(scorer_config);
  const StreamPopulations pops =
      replay_trace_streaming(reader, rc, stream_scorer);
  stream_scorer.finish();
  std::printf("  %-14s %10.2f %14zu %11zu fl\n", "replay_stream",
              seconds_since(start), peak_rss_kb() - rss,
              static_cast<std::size_t>(stream_scorer.flows_scored()));

  std::printf(
      "\ntrace_file_bytes=%zu events=%llu batch_flows=%llu "
      "stream_flows=%llu\n",
      file_bytes, static_cast<unsigned long long>(reader.event_count()),
      static_cast<unsigned long long>(batch_scorer.flows_scored()),
      static_cast<unsigned long long>(stream_scorer.flows_scored()));
  std::printf(
      "(RSS deltas are high-water marks: a later leg that fits inside\n"
      "an earlier leg's footprint reports 0 — exactly the point of the\n"
      "streamed path.)\n");
  std::remove(path.c_str());
  if (batch_scorer.flows_scored() != stream_scorer.flows_scored() ||
      pops.flows != stream_scorer.flows_scored()) {
    std::fprintf(stderr, "batch and streamed replays disagree on flows\n");
    return 1;
  }
  return 0;
}

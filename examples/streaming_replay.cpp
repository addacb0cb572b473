// Streaming trace walkthrough: the same campaign → telemetry → ROC
// pipeline as examples/detection_replay.cpp, but the campaign never
// lives in memory — it spools to disk through trace_io::TraceWriter as
// it runs, streams back through trace_io::TraceReader (O(window)
// memory), replays through the TraceSource API byte-identically to the
// in-memory path, and sweeps a replay-level grid (campaign ×
// replay-seed × detector-threshold cells) with per-family ground truth.
//
// Every fingerprint line reproduces byte-for-byte on re-run; CI's
// golden guard diffs them against tests/goldens/streaming_replay.txt.
// The trace_file_bytes / replay_rss lines feed the Release job summary
// (RSS is environment-dependent, so it is reported, never gated).
#include <sys/resource.h>

#include <cstdio>
#include <string>

#include "detection/replay.hpp"
#include "detection/replay_grid.hpp"
#include "detection/roc.hpp"
#include "detection/telemetry.hpp"
#include "scenario/engine.hpp"
#include "scenario/trace_io.hpp"

namespace {

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

  std::printf(
      "=== Streaming campaign trace -> O(window) replay -> grid ===\n\n");

  // --- 1. record straight to disk --------------------------------------
  ScenarioSpec spec;
  spec.seed = 0x57e4;
  spec.initial_size = 400;
  spec.degree = 8;
  spec.horizon = 2 * kHour;
  spec.churn.joins_per_hour = 120.0;
  spec.churn.leaves_per_hour = 120.0;
  AttackPhase takedown;
  takedown.kind = AttackKind::RandomTakedown;
  takedown.start = 20 * kMinute;
  takedown.stop = kHour;
  takedown.takedowns_per_hour = 90.0;
  spec.attacks.push_back(takedown);
  spec.metrics.period = 10 * kMinute;

  const std::string path = "streaming_replay.otrace";
  {
    // A small chunk bound so the walkthrough's file exercises the
    // multi-chunk framing (the default is 8192 records per chunk).
    trace_io::TraceWriter writer(
        path, trace_io::TraceWriterConfig{.chunk_records = 512});
    CampaignEngine(spec, writer, &writer).run();
    writer.finish();
  }

  // An in-memory recording of the same seeds, for the differentials.
  CampaignTrace campaign;
  CampaignEngine(spec, campaign, &campaign).run();

  const trace_io::TraceReader reader(path);
  std::printf(
      "Recorded %llu events + %llu snapshots into %zu chunk frames.\n",
      static_cast<unsigned long long>(reader.event_count()),
      static_cast<unsigned long long>(reader.snapshot_count()),
      static_cast<std::size_t>(reader.chunk_count()));
  std::printf("trace_file_bytes: %zu\n", reader.file_bytes());
  std::printf("trace_event_fingerprint: %s\n",
              reader.fingerprint().c_str());
  std::printf("in_memory_fingerprint_matches: %s\n",
              reader.fingerprint() == campaign.fingerprint() ? "yes"
                                                             : "NO");

  // --- 2. replay through the TraceSource API ---------------------------
  ReplayConfig rc;
  rc.seed = 0xcab1e;
  rc.benign_web = 150;
  rc.benign_tor = 25;
  rc.centralized_bots = 30;
  rc.dga_bots = 30;
  rc.fastflux_bots = 30;
  rc.p2p_bots = 30;

  const std::size_t rss_before_kb = peak_rss_kb();
  const ReplayResult streamed = replay_trace(reader, rc);
  const ReplayResult in_memory = replay_trace(campaign, rc);
  std::printf(
      "\nReplayed %zu monitored hosts, %zu flows through the streamed\n"
      "source; byte-identical to the in-memory path: %s\n",
      streamed.trace.hosts.size(), streamed.trace.flows.size(),
      fingerprint(streamed.trace) == fingerprint(in_memory.trace) ? "yes"
                                                                  : "NO");
  std::printf("streamed_replay_fingerprint: %s\n",
              fingerprint(streamed.trace).c_str());

  // --- 3. the family-resolved ROC sweep --------------------------------
  const GroundTruth truth = replay_ground_truth(streamed);
  const RocReport roc = RocSweep().run(streamed.trace, truth);
  std::printf(
      "\nFamily-resolved ROC sweep: %zu operating points, %zu named\n"
      "populations per point (the aggregate columns keep the legacy\n"
      "byte encoding; family columns ride along).\n",
      roc.points.size(), truth.populations.size());
  std::printf("roc_family_fingerprint: %s\n", roc.fingerprint.c_str());

  // --- 4. the replay-level grid ----------------------------------------
  ReplayGridConfig grid_config;
  grid_config.replay = rc;
  grid_config.replay_seeds = {1, 2};
  grid_config.flow_size_cv = {0.25, 0.5};
  grid_config.flow_gap_cv = {0.45, 1.0};
  grid_config.tor_min_flows = {1, 10};
  const ReplayGridReport grid = ReplayGrid(grid_config).run(reader);
  const std::size_t rss_after_kb = peak_rss_kb();

  std::printf(
      "\nReplay grid: %zu points (%zu seeds x %zu thresholds) streamed\n"
      "from disk on %zu threads — each cell scores every threshold in\n"
      "one O(window) pass, no TrafficTrace ever materializes.\n",
      grid.points.size(), grid_config.replay_seeds.size(),
      ReplayGrid(grid_config).points_per_cell(), grid.threads_used);
  std::printf("replay_grid_fingerprint: %s\n", grid.fingerprint.c_str());
  std::printf("replay_rss_delta_kb: %zu\n", rss_after_kb - rss_before_kb);

  // The tor-flagger row the paper's argument turns on, with the
  // per-family resolution the aggregate sweep cannot show.
  for (const ReplayGridPoint& p : grid.points)
    if (p.detector == "tor-flagger" && p.replay_seed == 1 &&
        p.params == "min_flows=1") {
      std::printf(
          "\ntor-flagger (seed 1, min_flows=1): TPR %.2f, FPR %.2f —\n",
          p.tpr, p.fpr);
      for (const RocFamilyCount& f : p.families)
        std::printf("  %-12s %4zu / %4zu flagged\n", f.family.c_str(),
                    f.flagged, f.population);
      std::printf(
          "the OnionBot and benign-Tor rows rise together: flagging\n"
          "Tor-bound beacons means flagging Tor (paper SS VI).\n");
    }

  std::remove(path.c_str());
  return 0;
}

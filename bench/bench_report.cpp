// Golden printer for the pinned campaigns: runs one of them and prints
// its snapshot-stream fingerprint lines (`<cadence> <fingerprint>`),
// exactly the contents of the matching golden file. ctest's
// golden_campaign_10k and golden_campaign_500k diff this output against
// tests/goldens/campaign_10k.txt and campaign_500k.txt.
//
//   ./build/bench_bench_report campaign_10k     (sparse_300s + dense_1s)
//   ./build/bench_bench_report campaign_500k    (leave_heavy_500k_1s)
//
// The campaign specs are pinned; perfbench times the same specs.
// 10k: degree 10, one hour, 500/500 churn per hour, a 600/h
// random-takedown wave in minutes [15, 45); only the cadence differs
// between its two runs. 500k ("leave_heavy_500k_1s"): ten minutes at a
// 1 s cadence with 18000 leaves/h plus a 6000/h takedown wave — every
// snapshot window contains deletions, the exact regime where the old
// hybrid tracker paid a full component rebuild per snapshot.
#include <cstdio>
#include <string_view>

#include "scenario/engine.hpp"

namespace {

using namespace onion;
using namespace onion::scenario;

ScenarioSpec pinned_spec(SimDuration metrics_period) {
  ScenarioSpec spec;
  spec.seed = 0xbe7c;
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
  spec.metrics.period = metrics_period;
  return spec;
}

/// The scale tier: 500k bots, leave-heavy churn, dense 1 s cadence.
/// tests/scale_test.cpp runs the same spec as the labeled scale smoke.
ScenarioSpec scale_spec() {
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

void print_fingerprint(const char* cadence, const ScenarioSpec& spec) {
  HashSink sink;
  CampaignEngine engine(spec, sink);
  engine.run();
  std::printf("%s %s\n", cadence, sink.hex_digest().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view which = argc == 2 ? argv[1] : "";
  if (which == "campaign_10k") {
    print_fingerprint("sparse_300s", pinned_spec(5 * kMinute));
    print_fingerprint("dense_1s", pinned_spec(kSecond));
  } else if (which == "campaign_500k") {
    print_fingerprint("leave_heavy_500k_1s", scale_spec());
  } else {
    if (argc < 2)
      std::fprintf(stderr, "bench_report: missing campaign argument\n");
    else  // the first token that is not a lone known campaign
      std::fprintf(stderr, "bench_report: unknown argument '%s'\n",
                   argv[argc == 2 ? 1 : 2]);
    std::fprintf(stderr,
                 "usage: bench_report campaign_10k|campaign_500k\n");
    return 2;
  }
  return 0;
}

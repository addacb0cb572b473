// perfbench: the repository benchmark. One closed-loop, single-threaded
// driver over three pinned workloads; every layer is timed from outside,
// around calls into the public APIs of graph, core, scenario, sim and
// detection. Nothing in src/ is instrumented.
//
//   perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//             [--root <repo>] [--work <dir>]
//
// --trace 0 runs operations back to back for --seconds and reports the
// end-to-end metrics; --trace 1 runs a fixed traced pass (set-up probes,
// an untraced and a tapped campaign, deletion isolation, the replay legs)
// and reports the per-layer metrics. The last stdout line is one JSON
// object {correct, attempted, failed, metrics}; the exit code is nonzero
// when any operation failed its correctness check or a traced self-check
// failed. README.md lists which end-to-end metric each layer metric should
// move, on which workload.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/ddsr.hpp"
#include "core/overlay.hpp"
#include "detection/replay_grid.hpp"
#include "graph/generators.hpp"
#include "scenario/engine.hpp"
#include "scenario/trace_io.hpp"
#include "scenario/tracker.hpp"

namespace {

using namespace onion;
using namespace onion::scenario;
using graph::NodeId;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// The highest percentile of `v` with at least ten samples above it;
/// with fewer than eleven samples no such percentile exists and the
/// maximum stands in. Returns (value, percentile).
std::pair<double, double> tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.size() < 11) return {v.back(), 100.0};
  const std::size_t rank = v.size() - 11;
  return {v[rank], 100.0 * static_cast<double>(rank + 1) /
                       static_cast<double>(v.size())};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --- pinned inputs -------------------------------------------------------

/// bench/bench_report.cpp's pinned 10k campaign at the dense 1 s cadence.
ScenarioSpec dense_10k_spec(std::uint64_t seed) {
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
  spec.metrics.period = kSecond;
  return spec;
}

/// bench/bench_report.cpp's 500k leave-heavy scale campaign.
ScenarioSpec leave_heavy_500k_spec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
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

/// bench/trace_stream.cpp's recorded campaign: the 10k spec at a 5 min
/// cadence.
ScenarioSpec recorded_10k_spec(std::uint64_t seed) {
  ScenarioSpec spec = dense_10k_spec(seed);
  spec.metrics.period = 5 * kMinute;
  return spec;
}

/// bench/trace_stream.cpp's replay population and its 16 flow-beacon +
/// 4 tor-flagger threshold axes (the ReplayGridConfig defaults), on one
/// thread. The replay seed is set per cell.
detection::ReplayGridConfig replay_grid_config() {
  detection::ReplayGridConfig config;
  config.replay.benign_web = 500;
  config.replay.benign_tor = 100;
  config.replay.centralized_bots = 50;
  config.replay.dga_bots = 50;
  config.replay.fastflux_bots = 50;
  config.replay.p2p_bots = 50;
  config.replay.onion_mean_gap = kMinute;
  config.threads = 1;
  return config;
}

/// The fixed replay-seed list replay_score_10k cycles through.
constexpr std::array<std::uint64_t, 4> kReplaySeeds = {1, 2, 3, 4};

struct Workload {
  const char* name;
  std::uint64_t pinned_seed;
  ScenarioSpec (*spec)(std::uint64_t seed);
  bool replay;              // operations are replay cells, not campaigns
  const char* golden_file;  // campaign digest golden (campaign workloads)
  const char* golden_key;
};

constexpr Workload kWorkloads[] = {
    {"campaign_500k_leave_heavy", 0x5ca1e, leave_heavy_500k_spec, false,
     "tests/goldens/campaign_500k.txt", "leave_heavy_500k_1s"},
    {"campaign_10k_dense", 0xbe7c, dense_10k_spec, false,
     "tests/goldens/campaign_10k.txt", "dense_1s"},
    {"replay_score_10k", 0xbeef, recorded_10k_spec, true, nullptr, nullptr},
};

// --- reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Counts operations and correctness failures, and the traced run's
/// self-checks; a failure is also named on stderr so a red run says what
/// broke.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_ok = true;

  void op(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
  void check(bool ok, const std::string& what) {
    if (ok) return;
    checks_ok = false;
    std::fprintf(stderr, "perfbench: SELF-CHECK FAILED %s\n", what.c_str());
  }
  bool correct() const { return failed == 0 && checks_ok; }
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.correct() ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  std::printf("}}\n");
}

std::string read_keyed(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string k;
    std::string v;
    if (fields >> k >> v && k == key) return v;
  }
  throw std::runtime_error("no '" + key + "' line in " + path);
}

// --- checks ----------------------------------------------------------------

/// The differential oracle for a campaign: the from-scratch sweep of the
/// final overlay must equal the final snapshot's structural fields.
bool structure_matches_sweep(const CampaignEngine& engine,
                             const MetricsSnapshot& final_snapshot) {
  const MetricsSnapshot sweep = sweep_structural(
      engine.overlay(), engine.spec().metrics.degree_histogram);
  const MetricsSnapshot& s = final_snapshot;
  return sweep.honest_alive == s.honest_alive &&
         sweep.sybil_alive == s.sybil_alive &&
         sweep.honest_edges == s.honest_edges &&
         sweep.components == s.components &&
         sweep.largest_component == s.largest_component &&
         sweep.largest_fraction == s.largest_fraction &&
         sweep.average_degree == s.average_degree &&
         sweep.degree_histogram == s.degree_histogram;
}

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

EdgeList edge_list(const graph::Graph& g) {
  EdgeList edges;
  edges.reserve(g.num_edges());
  for (NodeId u = 0; u < g.capacity(); ++u) {
    if (!g.alive(u)) continue;
    for (const NodeId v : g.neighbors(u))
      if (u < v) edges.emplace_back(u, v);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Tapped phases do extra trace-only work (SOAP's contained_count(), the
/// adaptive top-target scan), so a traced run of such a spec would not
/// do the untraced run's work. The pinned specs have none.
bool traceable(const ScenarioSpec& spec) {
  if (!spec.waves.waves.empty()) return false;
  return std::none_of(spec.attacks.begin(), spec.attacks.end(),
                      [](const AttackPhase& p) {
                        return p.kind == AttackKind::SoapInjection ||
                               p.kind == AttackKind::AdaptiveTakedown;
                      });
}

// --- campaign and replay operations -----------------------------------------

struct CampaignTiming {
  double setup_s = 0.0;     // CampaignEngine constructor
  double run_s = 0.0;       // CampaignEngine::run()
  double teardown_s = 0.0;  // destructor
  std::size_t events = 0;
  bool ok = false;
};

/// One campaign operation: construct, run, check (untimed), destroy.
/// `golden` is the expected HashSink digest, or empty to skip.
CampaignTiming run_campaign(const ScenarioSpec& spec,
                            const std::string& golden) {
  CampaignTiming timing;
  HashSink sink;
  const auto t0 = Clock::now();
  auto engine = std::make_unique<CampaignEngine>(spec, sink);
  const auto t1 = Clock::now();
  const MetricsSnapshot final_snapshot = engine->run();
  const auto t2 = Clock::now();
  timing.setup_s = seconds_between(t0, t1);
  timing.run_s = seconds_between(t1, t2);
  timing.events = engine->events_executed();
  timing.ok = structure_matches_sweep(*engine, final_snapshot) &&
              (golden.empty() || sink.hex_digest() == golden);
  const auto t3 = Clock::now();
  engine.reset();
  timing.teardown_s = seconds_since(t3);
  return timing;
}

/// Charges the time spent inside a wrapped call to an accumulator.
class ScopedCharge {
 public:
  explicit ScopedCharge(double& total) : total_(total) {}
  ~ScopedCharge() { total_ += seconds_since(start_); }
  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;

 private:
  double& total_;
  Clock::time_point start_ = Clock::now();
};

/// A TraceWriter decorator that times every writer callback and finish().
class TimedTraceWriter final : public TraceSink, public SnapshotSink {
 public:
  explicit TimedTraceWriter(trace_io::TraceWriter& writer)
      : writer_(writer) {}

  void on_begin(const ScenarioSpec& spec,
                const std::vector<NodeId>& initial) override {
    ScopedCharge charge(seconds_);
    writer_.on_begin(spec, initial);
  }
  void on_event(const CampaignEvent& e) override {
    ScopedCharge charge(seconds_);
    writer_.on_event(e);
  }
  void on_snapshot(const MetricsSnapshot& s) override {
    ScopedCharge charge(seconds_);
    writer_.on_snapshot(s);
  }
  void finish() {
    ScopedCharge charge(seconds_);
    writer_.finish();
  }
  double seconds() const { return seconds_; }

 private:
  trace_io::TraceWriter& writer_;
  double seconds_ = 0.0;
};

/// A per-process trace file in the work directory, removed when it goes
/// out of scope, on error paths too.
class ScratchFile {
 public:
  ScratchFile(const std::string& dir, const std::string& stem)
      : path_(dir + "/" + stem + "." + std::to_string(getpid()) + ".otrace") {}
  ~ScratchFile() { std::remove(path_.c_str()); }
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Records `spec`'s campaign to `path`; returns the time spent inside
/// the writer.
double record_trace(const ScenarioSpec& spec, const std::string& path) {
  trace_io::TraceWriter writer(path);
  TimedTraceWriter timed(writer);
  CampaignEngine(spec, timed, &timed).run();
  timed.finish();
  return timed.seconds();
}

struct CellResult {
  std::string fingerprint;
  double run_s = 0.0;   // ReplayGridReport::wall_seconds (the cell itself)
  double wall_s = 0.0;  // the whole ReplayGrid::run call
  std::uint64_t flows = 0;
};

/// One replay operation: a one-cell ReplayGrid over `source`.
CellResult run_cell(const TraceSource& source, std::uint64_t replay_seed) {
  detection::ReplayGridConfig config = replay_grid_config();
  config.replay_seeds = {replay_seed};
  const detection::ReplayGrid grid(config);
  CellResult cell;
  const auto start = Clock::now();
  const detection::ReplayGridReport report = grid.run(source);
  cell.wall_s = seconds_since(start);
  cell.run_s = report.wall_seconds;
  cell.fingerprint = report.fingerprint;
  cell.flows = report.points.empty() ? 0 : report.points.front().flows;
  return cell;
}

// --- the untraced run: end-to-end metrics ----------------------------------

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string work = ".";
};

struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> wall_s;
  /// Work per second of run_s: simulator events (campaigns) or scored
  /// flows (replay).
  std::vector<double> work_per_s;
};

std::vector<Metric> end_to_end_metrics(const EndToEnd& e) {
  const auto [tail_s, tail_pct] = tail(e.wall_s);
  std::printf("wall_s_tail: p%.1f of %zu operations\n", tail_pct,
              e.wall_s.size());
  return {{"setup_s", median(e.setup_s), "s"},
          {"run_s", median(e.run_s), "s"},
          {"wall_s", median(e.wall_s), "s"},
          {"wall_s_tail", tail_s, "s"},
          {"events_per_s", median(e.work_per_s), "1/s"},
          {"peak_rss_mb", peak_rss_mb(), "MB"}};
}

/// Untimed warm-up before the measured loop: heap and caches settle.
constexpr double kWarmupSeconds = 1.0;

/// The closed loop: `op(measured)` back to back, each starting when the
/// previous one ends — warm-up operations for kWarmupSeconds, then
/// measured ones for `seconds`; at least one of each.
template <class Op>
void closed_loop(double seconds, Op op) {
  auto start = Clock::now();
  do {
    op(false);
  } while (seconds_since(start) < kWarmupSeconds);
  start = Clock::now();
  do {
    op(true);
  } while (seconds_since(start) < seconds);
}

std::vector<Metric> run_campaigns(const Options& opt, Tally& tally) {
  const Workload& w = *opt.workload;
  const ScenarioSpec spec = w.spec(opt.seed);
  const std::string golden =
      opt.seed == w.pinned_seed
          ? read_keyed(opt.root + "/" + w.golden_file, w.golden_key)
          : std::string();
  EndToEnd e;
  closed_loop(opt.seconds, [&](bool measured) {
    const CampaignTiming t = run_campaign(spec, golden);
    tally.op(t.ok, std::string(w.name) + " campaign " +
                       std::to_string(tally.attempted + 1));
    if (!measured) return;
    e.setup_s.push_back(t.setup_s);
    e.run_s.push_back(t.run_s);
    e.wall_s.push_back(t.setup_s + t.run_s + t.teardown_s);
    e.work_per_s.push_back(static_cast<double>(t.events) / t.run_s);
  });
  return end_to_end_metrics(e);
}

/// Replay-seed -> fingerprint stored with the benchmark for the pinned
/// recorded campaign.
std::string stored_cell_fingerprint(const Options& opt, std::uint64_t seed) {
  return read_keyed(opt.root + "/perfbench/replay_fingerprints.txt",
                    "seed=" + std::to_string(seed));
}

std::vector<Metric> run_replay_cells(const Options& opt, Tally& tally) {
  const ScenarioSpec spec = opt.workload->spec(opt.seed);
  const ScratchFile trace(opt.work, opt.workload->name);
  const std::string& path = trace.path();
  EndToEnd e;

  // Set-up, several times: record the campaign, open the reader.
  std::unique_ptr<trace_io::TraceReader> reader;
  for (int rep = 0; rep < 10; ++rep) {
    reader.reset();
    const auto start = Clock::now();
    record_trace(spec, path);
    reader = std::make_unique<trace_io::TraceReader>(path);
    e.setup_s.push_back(seconds_since(start));
  }

  // References, untimed: every listed seed replayed over an in-memory
  // CampaignTrace of the same campaign (the differential oracle), and
  // for the pinned campaign the fingerprints stored with the benchmark.
  CampaignTrace memory;
  CampaignEngine(spec, memory, &memory).run();
  tally.op(memory.fingerprint() == reader->fingerprint(),
           "replay_score_10k trace event fingerprint (file vs memory)");
  std::map<std::uint64_t, std::string> expected;
  for (const std::uint64_t s : kReplaySeeds) {
    const CellResult ref = run_cell(memory, s);
    std::fprintf(stderr, "replay cell seed=%llu fingerprint %s\n",
                 static_cast<unsigned long long>(s), ref.fingerprint.c_str());
    expected[s] = ref.fingerprint;
    if (opt.seed == opt.workload->pinned_seed)
      tally.op(ref.fingerprint == stored_cell_fingerprint(opt, s),
               "replay_score_10k stored fingerprint, seed " +
                   std::to_string(s));
  }

  std::size_t i = 0;
  closed_loop(opt.seconds, [&](bool measured) {
    const std::uint64_t s = kReplaySeeds[i++ % kReplaySeeds.size()];
    const CellResult cell = run_cell(*reader, s);
    tally.op(cell.fingerprint == expected[s],
             "replay_score_10k cell " + std::to_string(i) + " (seed " +
                 std::to_string(s) + ")");
    if (!measured) return;
    e.run_s.push_back(cell.run_s);
    e.wall_s.push_back(cell.wall_s);
    e.work_per_s.push_back(static_cast<double>(cell.flows) / cell.run_s);
  });
  return end_to_end_metrics(e);
}

// --- the traced run: per-layer metrics -------------------------------------

/// A timing tap: wraps the campaign's snapshot sink and doubles as its
/// trace sink. Each interval from one callback to the next is charged to
/// the event kind that opened it (the engine emits before a handler's
/// work); time inside the wrapped sink is charged to the sink. The
/// interval after on_begin is the t = 0 snapshot's fill, so it is charged
/// to snapshots.
class TimingTap final : public TraceSink, public SnapshotSink {
 public:
  static constexpr std::size_t kSnapshot = 16;  // past every event kind

  explicit TimingTap(SnapshotSink& inner) : inner_(inner) {}

  void on_begin(const ScenarioSpec&, const std::vector<NodeId>&) override {
    open(kSnapshot, Clock::now());
  }
  void on_event(const CampaignEvent& e) override {
    open(static_cast<std::size_t>(e.kind), Clock::now());
  }
  void on_snapshot(const MetricsSnapshot& s) override {
    const auto entered = Clock::now();
    charge(entered);
    open_ = kNone;
    inner_.on_snapshot(s);
    const auto left = Clock::now();
    sink_s_ += seconds_between(entered, left);
    open(kSnapshot, left);
  }
  /// Charges the last interval, up to the end of CampaignEngine::run().
  void close(Clock::time_point end) {
    charge(end);
    open_ = kNone;
  }

  double seconds(TraceEventKind kind) const {
    return seconds_[static_cast<std::size_t>(kind)];
  }
  double snapshot_s() const { return seconds_[kSnapshot]; }
  double sink_s() const { return sink_s_; }
  /// Every charged interval plus the sink time.
  double covered_s() const {
    double total = sink_s_;
    for (const double s : seconds_) total += s;
    return total;
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  void charge(Clock::time_point now) {
    if (open_ != kNone) seconds_[open_] += seconds_between(last_, now);
  }
  void open(std::size_t slot, Clock::time_point now) {
    charge(now);
    open_ = slot;
    last_ = now;
  }

  SnapshotSink& inner_;
  std::array<double, kSnapshot + 1> seconds_{};
  double sink_s_ = 0.0;
  std::size_t open_ = kNone;
  Clock::time_point last_{};
};

/// Counts flows and nothing else: the synthesizer's own cost.
class CountingFlowSink final : public detection::FlowSink {
 public:
  void on_relays(const std::vector<detection::HostId>&) override {}
  void on_flow(const detection::FlowRecord&) override { ++flows_; }
  void on_host_done(detection::HostId) override {}
  std::uint64_t flows() const { return flows_; }

 private:
  std::uint64_t flows_ = 0;
};

detection::FlowScorerConfig scorer_config() {
  const detection::ReplayGridConfig grid = replay_grid_config();
  detection::FlowScorerConfig config;
  for (const double size_cv : grid.flow_size_cv)
    for (const double gap_cv : grid.flow_gap_cv) {
      detection::FlowDetectorConfig c;
      c.min_flows = grid.flow_min_flows;
      c.size_cv_threshold = size_cv;
      c.gap_cv_threshold = gap_cv;
      config.beacon_thresholds.push_back(c);
    }
  config.tor_min_flows = grid.tor_min_flows;
  return config;
}

/// The engine's overlay config and DDSR policy (scenario/engine.cpp):
/// the probes must build and heal the overlay exactly as the engine does.
core::OverlayConfig overlay_config(const ScenarioSpec& spec) {
  core::OverlayConfig config;
  config.dmin = spec.degree;
  config.dmax = spec.degree;
  config.rate_limit_per_round = spec.defense.rate_limit_per_round;
  config.pow_base_cost = spec.defense.pow_base_cost;
  config.pow_growth = spec.defense.pow_growth;
  return config;
}

core::DdsrPolicy ddsr_policy(const ScenarioSpec& spec) {
  core::DdsrPolicy policy;
  policy.dmin = spec.degree;
  policy.dmax = spec.degree;
  return policy;
}

/// The engine's RNG derivation: Rng(seed), split once for metrics.
Rng engine_rng(const ScenarioSpec& spec) {
  Rng rng(spec.seed);
  (void)rng.split();
  return rng;
}

/// Tolerances of the traced run's self-checks.
constexpr double kCoverageTolerance = 0.02;  // handler intervals vs run_s
constexpr double kSetupTolerance = 0.25;     // three parts vs constructor

/// Set-up layers, each probe with the engine's RNG derivation, against
/// the engine constructor they should add up to.
void probe_setup(const ScenarioSpec& spec, int reps, Tally& tally,
                 std::vector<Metric>& m) {
  const std::size_t n = spec.initial_size;
  const std::size_t k = spec.degree;
  std::vector<double> generate_s;
  std::vector<double> overlay_s;
  std::vector<double> attach_s;
  std::vector<double> ctor_s;
  // The sum check compares medians: at least three rounds.
  for (int rep = 0; rep < std::max(reps, 3); ++rep) {
    EdgeList generated;
    {
      Rng rng = engine_rng(spec);
      const auto start = Clock::now();
      const graph::Graph topology = graph::random_regular(n, k, rng);
      generate_s.push_back(seconds_since(start));
      generated = edge_list(topology);
    }
    EdgeList built;
    {
      Rng rng = engine_rng(spec);
      auto start = Clock::now();
      core::OverlayNetwork net = core::OverlayNetwork::random_regular(
          n, k, overlay_config(spec), rng);
      overlay_s.push_back(seconds_since(start));
      built = edge_list(net.graph());
      start = Clock::now();
      const StructuralTracker tracker(net);
      attach_s.push_back(seconds_since(start));
    }
    HashSink sink;
    const auto start = Clock::now();
    const CampaignEngine engine(spec, sink);
    ctor_s.push_back(seconds_since(start));
    tally.op(generated == built && built == edge_list(engine.overlay().graph()),
             "set-up probe builds the engine's initial overlay");
  }
  const double generate = median(generate_s);
  const double overlay = median(overlay_s) - generate;
  const double attach = median(attach_s);
  const double ctor = median(ctor_s);
  std::printf("setup parts: %.6f s of a %.6f s constructor\n",
              generate + overlay + attach, ctor);
  tally.check(std::abs(generate + overlay + attach - ctor) <=
                  kSetupTolerance * ctor,
              "set-up parts do not sum to the constructor time");
  m.push_back({"graph.random_regular_s", generate, "s"});
  m.push_back({"core.overlay_build_s", overlay, "s"});
  m.push_back({"scenario.tracker_attach_s", attach, "s"});
}

/// Run layers: untraced campaigns, then campaigns through the timing tap,
/// and the exact counters read after the tapped run.
void probe_run(const ScenarioSpec& spec, int reps, Tally& tally,
               std::vector<Metric>& m) {
  std::vector<double> plain_run_s;
  std::string plain_digest;
  for (int rep = 0; rep < reps; ++rep) {
    HashSink sink;
    CampaignEngine engine(spec, sink);
    const auto start = Clock::now();
    engine.run();
    plain_run_s.push_back(seconds_since(start));
    plain_digest = sink.hex_digest();
  }
  std::vector<double> traced_run_s;
  std::map<std::string, std::vector<double>> layer_s;
  std::vector<Metric> counters;
  for (int rep = 0; rep < reps; ++rep) {
    HashSink sink;
    TimingTap tap(sink);
    CampaignEngine engine(spec, tap, &tap);
    const auto start = Clock::now();
    const MetricsSnapshot final_snapshot = engine.run();
    const auto end = Clock::now();
    tap.close(end);
    const double run_s = seconds_between(start, end);
    traced_run_s.push_back(run_s);
    tally.op(sink.hex_digest() == plain_digest &&
                 structure_matches_sweep(engine, final_snapshot),
             "tapped campaign matches the untraced one");
    tally.check(std::abs(tap.covered_s() - run_s) <= kCoverageTolerance * run_s,
                "handler intervals do not cover the traced run_s");
    layer_s["scenario.join_s"].push_back(tap.seconds(TraceEventKind::Join));
    layer_s["scenario.peering_s"].push_back(
        tap.seconds(TraceEventKind::Peering) +
        tap.seconds(TraceEventKind::HealPeering));
    layer_s["scenario.leave_s"].push_back(tap.seconds(TraceEventKind::Leave));
    layer_s["scenario.takedown_s"].push_back(
        tap.seconds(TraceEventKind::Takedown));
    layer_s["scenario.snapshot_s"].push_back(tap.snapshot_s());
    layer_s["scenario.sink_s"].push_back(tap.sink_s());

    // Equal on every repetition: the campaign is deterministic.
    const graph::DynamicConnectivity& dc = engine.tracker().connectivity();
    const core::DdsrStats& ddsr = engine.ddsr_stats();
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    counters = {
        {"graph.dynconn.search_steps", count(dc.search_steps()), "count"},
        {"graph.dynconn.steps_per_deletion",
         count(dc.search_steps()) / std::max(1.0, count(ddsr.nodes_removed)),
         "count"},
        {"graph.dynconn.merges", count(dc.merges()), "count"},
        {"graph.dynconn.splits", count(dc.splits()), "count"},
        {"core.ddsr.repair_edges", count(ddsr.repair_edges_added), "count"},
        {"core.ddsr.prune_edges", count(ddsr.prune_edges_removed), "count"},
        {"core.ddsr.refill_edges", count(ddsr.refill_edges_added), "count"},
        {"core.ddsr.nodes_removed", count(ddsr.nodes_removed), "count"},
        {"sim.events", count(engine.events_executed()), "count"}};
  }
  std::printf("traced run_s %.6f s, untraced %.6f s\n", median(traced_run_s),
              median(plain_run_s));
  for (const char* name :
       {"scenario.join_s", "scenario.peering_s", "scenario.leave_s",
        "scenario.takedown_s", "scenario.snapshot_s", "scenario.sink_s"})
    m.push_back({name, median(layer_s[name]), "s"});
  m.push_back({"scenario.tap_overhead_s",
               median(traced_run_s) - median(plain_run_s), "s"});
  m.insert(m.end(), counters.begin(), counters.end());
}

/// Deletion isolation: the same K random DDSR deletions on a fresh
/// overlay, without and with a tracker attached.
void probe_deletions(const ScenarioSpec& spec, int reps, Tally& tally,
                     std::vector<Metric>& m) {
  const std::size_t n = spec.initial_size;
  const std::size_t deletions = std::min<std::size_t>(2000, n / 20);
  std::vector<NodeId> ids(n);
  for (NodeId u = 0; u < n; ++u) ids[u] = u;
  Rng victim_rng(spec.seed ^ 0xde1e7ed0ull);
  const std::vector<NodeId> victims = victim_rng.sample(ids, deletions);
  std::vector<double> bare_s;
  std::vector<double> tracked_s;
  for (int rep = 0; rep < reps; ++rep) {
    std::array<EdgeList, 2> after;
    for (const bool with_tracker : {false, true}) {
      Rng rng = engine_rng(spec);
      core::OverlayNetwork net = core::OverlayNetwork::random_regular(
          n, spec.degree, overlay_config(spec), rng);
      std::unique_ptr<StructuralTracker> tracker;
      if (with_tracker) tracker = std::make_unique<StructuralTracker>(net);
      core::DdsrEngine ddsr(net.graph_mut(), ddsr_policy(spec), rng);
      const auto start = Clock::now();
      for (const NodeId v : victims) ddsr.remove_node(v);
      (with_tracker ? tracked_s : bare_s).push_back(seconds_since(start));
      after[with_tracker ? 1 : 0] = edge_list(net.graph());
    }
    tally.op(after[0] == after[1],
             "deletion probe heals identically with and without a tracker");
  }
  const double per_call = 1e6 / static_cast<double>(deletions);
  m.push_back({"core.ddsr.remove_node_us", median(bare_s) * per_call, "us"});
  m.push_back({"graph.dynconn.remove_node_us",
               (median(tracked_s) - median(bare_s)) * per_call, "us"});
}

/// Replay layers over the campaign recorded to disk.
void probe_replay(const ScenarioSpec& spec, const std::string& path, int reps,
                  Tally& tally, std::vector<Metric>& m) {
  std::map<std::string, std::vector<double>> replay_s;
  std::uint64_t flows = 0;
  for (int rep = 0; rep < reps; ++rep) {
    replay_s["scenario.trace_write_s"].push_back(record_trace(spec, path));
    const trace_io::TraceReader reader(path);

    std::uint64_t events = 0;
    auto start = Clock::now();
    reader.for_each_event([&](const CampaignEvent&) { ++events; });
    replay_s["scenario.trace_read_s"].push_back(seconds_since(start));

    start = Clock::now();
    const std::vector<BotLifetime> lifetimes = reader.lifetimes();
    replay_s["scenario.lifetimes_s"].push_back(seconds_since(start));

    detection::ReplayConfig replay = replay_grid_config().replay;
    replay.seed = kReplaySeeds.front();
    CountingFlowSink counter;
    start = Clock::now();
    flows = detection::replay_trace_streaming(reader, replay, counter).flows;
    const double synth = seconds_since(start);

    detection::FlowScorer scorer(scorer_config());
    start = Clock::now();
    detection::replay_trace_streaming(reader, replay, scorer);
    scorer.finish();
    const double scored = seconds_since(start);
    replay_s["detection.synth_s"].push_back(synth);
    replay_s["detection.score_s"].push_back(scored - synth);
    replay_s["detection.flows_per_s"].push_back(
        static_cast<double>(scorer.flows_scored()) / scored);
    tally.op(events == reader.event_count() && !lifetimes.empty() &&
                 flows > 0 && counter.flows() == flows &&
                 scorer.flows_scored() == flows,
             "replay legs agree on events and flows");
  }
  for (const char* name :
       {"scenario.trace_write_s", "scenario.trace_read_s",
        "scenario.lifetimes_s", "detection.synth_s", "detection.score_s"})
    m.push_back({name, median(replay_s[name]), "s"});
  m.push_back({"detection.flows", static_cast<double>(flows), "count"});
  m.push_back({"detection.flows_per_s",
               median(replay_s["detection.flows_per_s"]), "1/s"});
}

/// The traced pass over the workload's campaign (for replay_score_10k,
/// the recorded one).
std::vector<Metric> run_traced(const Options& opt, Tally& tally) {
  const ScenarioSpec spec = opt.workload->spec(opt.seed);
  tally.check(traceable(spec), "traced spec has a SOAP or adaptive phase");
  // Small overlays are timed several times and reported as medians.
  const int reps = spec.initial_size >= 100'000 ? 1 : 5;
  const ScratchFile trace(opt.work, opt.workload->name);
  std::vector<Metric> m;
  probe_setup(spec, reps, tally, m);
  probe_run(spec, std::min(reps, 3), tally, m);
  probe_deletions(spec, reps, tally, m);
  probe_replay(spec, trace.path(), std::min(reps, 3), tally, m);
  return m;
}

// --- command line ----------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> [--seed <n>] "
               "[--seconds <s>] [--trace 0|1] [--root <dir>] [--work <dir>]\n"
               "workloads:",
               why.c_str());
  for (const Workload& w : kWorkloads)
    std::fprintf(stderr, " %s (seed 0x%llx)", w.name,
                 static_cast<unsigned long long>(w.pinned_seed));
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(text, &used, 0);
  } catch (const std::exception&) {
    used = 0;
  }
  if (text.empty() || text[0] == '-' || used != text.size())
    usage("bad " + flag + " value '" + text + "'");
  return value;
}

Options parse(int argc, char** argv) {
  Options opt;
  bool seeded = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads)
        if (value == w.name) opt.workload = &w;
      if (opt.workload == nullptr) usage("unknown workload '" + value + "'");
    } else if (flag == "--seed") {
      opt.seed = parse_u64(flag, value);
      seeded = true;
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--root") {
      opt.root = value;
    } else if (flag == "--work") {
      opt.work = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (opt.workload == nullptr) usage("--workload is required");
  if (!seeded) opt.seed = opt.workload->pinned_seed;
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    std::printf("workload: %s seed: 0x%llx (%s) trace: %d\n",
                opt.workload->name, static_cast<unsigned long long>(opt.seed),
                opt.seed == opt.workload->pinned_seed
                    ? "pinned: golden fingerprints checked"
                    : "held out: differential oracles only",
                opt.trace ? 1 : 0);
    Tally tally;
    const std::vector<Metric> metrics =
        opt.trace ? run_traced(opt, tally)
        : opt.workload->replay ? run_replay_cells(opt, tally)
                               : run_campaigns(opt, tally);
    print_result(tally, metrics);
    return tally.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}

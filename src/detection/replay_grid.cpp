#include "detection/replay_grid.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/check.hpp"
#include "detection/traffic.hpp"
#include "scenario/wire.hpp"

namespace onion::detection {

namespace {

using scenario::CampaignEvent;
using scenario::TraceEventKind;
using scenario::TraceSource;

}  // namespace

StreamPopulations replay_trace_streaming(const TraceSource& campaign,
                                         const ReplayConfig& config,
                                         FlowSink& sink) {
  ONION_EXPECTS(campaign.began());
  const SimDuration window =
      config.window > 0 ? config.window : campaign.horizon();
  ONION_EXPECTS(window > 0);

  Rng rng(config.seed);
  StreamPopulations out;
  HostId next = config.first_host;

  // Stage 1 — benign background and legacy families. These populations
  // are config-bounded, so a scratch trace holds them comfortably; what
  // must never be materialized is the campaign population below.
  ReplayResult pops;
  TrafficTrace& scratch = pops.trace;
  const BenignPopulation benign = emit_benign(
      scratch, window, config.benign_web, config.benign_tor,
      config.tor_relays, config.benign_tor_mean_gap, next, rng);
  pops.benign_web_hosts = benign.web_hosts;
  pops.benign_tor_users = benign.tor_users;
  if (config.centralized_bots > 0)
    pops.centralized_bots = emit_centralized_bots(
        scratch, config.centralized_bots, window, next, rng);
  if (config.dga_bots > 0)
    pops.dga_bots =
        emit_dga_bots(scratch, config.dga_bots, window, next, rng);
  if (config.fastflux_bots > 0)
    pops.fastflux_bots =
        emit_fastflux_bots(scratch, config.fastflux_bots, window, next, rng);
  if (config.p2p_bots > 0)
    pops.p2p_bots =
        emit_p2p_bots(scratch, config.p2p_bots, window, next, rng);

  // Campaign population setup (host ids assigned before any feeding so
  // the relay registry is complete when the sink first sees a flow).
  std::vector<scenario::BotLifetime> lifetimes;
  std::vector<HostId> relays = benign.relays;
  if (config.max_onion_bots > 0) {
    lifetimes = campaign.lifetimes();
    if (lifetimes.size() > config.max_onion_bots)
      lifetimes.resize(config.max_onion_bots);  // oldest bots first
    lifetimes.erase(
        std::remove_if(lifetimes.begin(), lifetimes.end(),
                       [&](const scenario::BotLifetime& life) {
                         return life.birth >= window;  // never observable
                       }),
        lifetimes.end());
    if (!lifetimes.empty() && relays.empty()) {
      ONION_EXPECTS(config.tor_relays > 0);
      relays = register_tor_relays(scratch, config.tor_relays, next);
    }
  }

  feed_trace(scratch, sink);
  out.flows += scratch.flows.size();

  if (!lifetimes.empty()) {
    // Host ids and per-bot event times up front: one forward event pass
    // collects only the cell-emitting events' timestamps (bootstrap and
    // healing peerings, SOAP rounds) — bounded by campaign activity,
    // never by the churn-dominated event count. Bot i owns host
    // onion_bots[i] and cell_times[i]; slot_of maps a node id to its i.
    constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
    ONION_EXPECTS(lifetimes.size() < kNoSlot);
    graph::NodeId max_node = 0;
    for (const scenario::BotLifetime& life : lifetimes)
      max_node = std::max(max_node, life.node);
    std::vector<std::uint32_t> slot_of(std::size_t{max_node} + 1, kNoSlot);
    const auto bot_window = [&](std::size_t i) {
      return std::make_pair(std::min<SimTime>(lifetimes[i].birth, window),
                            std::min<SimTime>(lifetimes[i].death, window));
    };
    pops.onion_bots.reserve(lifetimes.size());
    for (std::size_t i = 0; i < lifetimes.size(); ++i) {
      pops.onion_bots.push_back(next++);
      slot_of[lifetimes[i].node] = static_cast<std::uint32_t>(i);
    }
    std::vector<std::vector<SimTime>> cell_times(lifetimes.size());
    const auto note = [&](std::uint64_t node, SimTime at) {
      if (node >= slot_of.size() || slot_of[node] == kNoSlot)
        return;  // subsampled out
      const std::uint32_t i = slot_of[node];
      const auto [birth, death] = bot_window(i);
      if (at < birth || at >= death) return;
      cell_times[i].push_back(at);
    };
    graph::NodeId soap_captured = graph::kInvalidNode;
    campaign.for_each_event([&](const CampaignEvent& e) {
      switch (e.kind) {
        case TraceEventKind::Peering:
        case TraceEventKind::HealPeering:
          note(e.a, e.at);
          note(e.b, e.at);
          break;
        case TraceEventKind::SoapCapture:
          soap_captured = static_cast<graph::NodeId>(e.a);
          break;
        case TraceEventKind::SoapRound:
          if (soap_captured != graph::kInvalidNode)
            note(soap_captured, e.at);
          break;
        case TraceEventKind::Join:
        case TraceEventKind::Leave:
        case TraceEventKind::Takedown:
        case TraceEventKind::WaveStart:
        case TraceEventKind::AdaptiveRefresh:
          break;
      }
    });

    // Stage 2 — one bot at a time: synthesize, feed, release. This is
    // the O(window) loop; the per-bot scratch never outlives the bot.
    TrafficTrace bot_scratch;
    for (std::size_t i = 0; i < lifetimes.size(); ++i) {
      const HostId host = pops.onion_bots[i];
      const auto [birth, death] = bot_window(i);
      const std::array<HostId, 3> guards = pick_guards(relays, rng);
      bot_scratch.flows.clear();
      bot_scratch.dns.clear();
      emit_browsing(bot_scratch, host, birth, death, rng);
      emit_tor_client(bot_scratch, host, guards, birth, death,
                      config.onion_mean_gap, rng);
      for (const SimTime at : cell_times[i])
        bot_scratch.flows.push_back(tor_cell_flow(
            host, guards[rng.uniform(guards.size())], at, rng));
      cell_times[i] = {};
      for (const DnsRecord& d : bot_scratch.dns) sink.on_dns(d);
      for (const FlowRecord& f : bot_scratch.flows) sink.on_flow(f);
      out.flows += bot_scratch.flows.size();
      sink.on_host_done(host);
    }
  }

  out.truth = replay_ground_truth(pops);
  out.known_tor_relays = scratch.known_tor_relays;
  for (const GroundTruth::Population& pop : out.truth.populations) {
    const bool is_benign =
        pop.name == "benign_web" || pop.name == "benign_tor";
    auto& dst = is_benign ? out.monitored : out.infected;
    dst.insert(dst.end(), pop.hosts.begin(), pop.hosts.end());
  }
  std::sort(out.infected.begin(), out.infected.end());
  out.monitored.insert(out.monitored.end(), out.infected.begin(),
                       out.infected.end());
  std::sort(out.monitored.begin(), out.monitored.end());
  return out;
}

void ReplayGridReport::write_csv(std::FILE* out) const {
  std::fprintf(out,
               "campaign,replay_seed,detector,params,flows,flagged,"
               "true_positives,false_positives,tpr,fpr,families\n");
  for (const ReplayGridPoint& p : points) {
    std::fprintf(out, "%zu,%llu,%s,\"%s\",%llu,%zu,%zu,%zu,%.6f,%.6f,\"",
                 p.campaign, static_cast<unsigned long long>(p.replay_seed),
                 p.detector.c_str(), p.params.c_str(),
                 static_cast<unsigned long long>(p.flows), p.flagged,
                 p.true_positives, p.false_positives, p.tpr, p.fpr);
    for (std::size_t i = 0; i < p.families.size(); ++i)
      std::fprintf(out, "%s%s=%zu/%zu", i == 0 ? "" : ";",
                   p.families[i].family.c_str(), p.families[i].flagged,
                   p.families[i].population);
    std::fprintf(out, "\"\n");
  }
}

std::string combine_replay_points(
    const std::vector<ReplayGridPoint>& points) {
  return codec::fingerprint(points);
}

ReplayGrid::ReplayGrid(ReplayGridConfig config)
    : config_(std::move(config)) {}

std::size_t ReplayGrid::points_per_cell() const {
  return config_.flow_size_cv.size() * config_.flow_gap_cv.size() +
         config_.tor_min_flows.size();
}

ReplayGridCell ReplayGrid::run_cell(const TraceSource& campaign,
                                    std::uint64_t cell_index) const {
  const std::size_t seeds = config_.replay_seeds.size();
  ReplayGridCell cell;
  cell.cell_index = cell_index;
  cell.campaign = cell_index / seeds;
  cell.replay_seed = config_.replay_seeds[cell_index % seeds];
  const auto start = std::chrono::steady_clock::now();

  FlowScorerConfig scorer_config;
  for (const double size_cv : config_.flow_size_cv)
    for (const double gap_cv : config_.flow_gap_cv) {
      FlowDetectorConfig c;
      c.min_flows = config_.flow_min_flows;
      c.size_cv_threshold = size_cv;
      c.gap_cv_threshold = gap_cv;
      scorer_config.beacon_thresholds.push_back(c);
    }
  scorer_config.tor_min_flows = config_.tor_min_flows;

  ReplayConfig replay = config_.replay;
  replay.seed = cell.replay_seed;
  FlowScorer scorer(scorer_config);
  const StreamPopulations pops =
      replay_trace_streaming(campaign, replay, scorer);
  scorer.finish();

  const TruthIndex truth(pops.infected, pops.monitored);
  const auto add = [&](std::string detector, std::string params,
                       const std::vector<HostId>& flagged) {
    RocPoint r = score_verdict(std::move(detector), std::move(params),
                               flagged, truth, pops.truth);
    cell.points.push_back({.campaign = static_cast<std::size_t>(cell.campaign),
                           .replay_seed = cell.replay_seed,
                           .detector = std::move(r.detector),
                           .params = std::move(r.params),
                           .flows = pops.flows,
                           .flagged = r.flagged,
                           .true_positives = r.true_positives,
                           .false_positives = r.false_positives,
                           .tpr = r.tpr,
                           .fpr = r.fpr,
                           .families = std::move(r.families)});
  };
  cell.points.reserve(points_per_cell());
  for (std::size_t k = 0; k < scorer_config.beacon_thresholds.size(); ++k) {
    const FlowDetectorConfig& c = scorer_config.beacon_thresholds[k];
    add("flow-beacon",
        flow_beacon_params(c.size_cv_threshold, c.gap_cv_threshold),
        scorer.beacon_flagged()[k]);
  }
  for (std::size_t k = 0; k < scorer_config.tor_min_flows.size(); ++k)
    add("tor-flagger", tor_flagger_params(scorer_config.tor_min_flows[k]),
        scorer.tor_flagged()[k]);
  cell.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return cell;
}

ReplayGridReport ReplayGrid::run(
    const std::vector<const TraceSource*>& campaigns) const {
  ReplayGridJob job(*this, campaigns);
  return job.report(scenario::run_job(job, config_.threads));
}

ReplayGridReport ReplayGrid::run(const TraceSource& campaign) const {
  return run(std::vector<const TraceSource*>{&campaign});
}

std::string replay_cell_frame_filename(std::uint64_t cell_index) {
  char name[48];
  std::snprintf(name, sizeof name, "replay_cell_%06llu.frame",
                static_cast<unsigned long long>(cell_index));
  return name;
}

ReplayGridJob::ReplayGridJob(const ReplayGrid& grid,
                             std::vector<const TraceSource*> campaigns)
    : grid_(grid),
      campaigns_(std::move(campaigns)),
      cells_(grid.cell_count(campaigns_.size())) {}

std::string ReplayGridJob::frame_filename(std::uint64_t cell_index) const {
  return replay_cell_frame_filename(cell_index);
}

std::string ReplayGridJob::cell_label(std::uint64_t cell_index) const {
  const std::size_t seeds = grid_.config().replay_seeds.size();
  return "campaign=" + std::to_string(cell_index / seeds) +
         ",replay_seed=" + std::to_string(cell_seed(cell_index));
}

std::uint64_t ReplayGridJob::cell_seed(std::uint64_t cell_index) const {
  const std::vector<std::uint64_t>& seeds = grid_.config().replay_seeds;
  return seeds[cell_index % seeds.size()];
}

Bytes ReplayGridJob::run_cell(std::uint64_t cell_index) const {
  const TraceSource* campaign =
      campaigns_[cell_index / grid_.config().replay_seeds.size()];
  ONION_EXPECTS_MSG(campaign != nullptr,
                    "merge-only replay campaign asked to run cell "
                        << cell_index);
  return scenario::wire::encode_frame(grid_.run_cell(*campaign, cell_index));
}

bool ReplayGridJob::accept_frame(std::uint64_t cell_index, BytesView framed,
                                 std::string& error) {
  ReplayGridCell loaded =
      scenario::wire::decode_frame<ReplayGridCell>(framed);
  const std::uint64_t campaign =
      cell_index / grid_.config().replay_seeds.size();
  const std::uint64_t replay_seed = cell_seed(cell_index);
  if (loaded.cell_index != cell_index || loaded.campaign != campaign ||
      loaded.replay_seed != replay_seed ||
      loaded.points.size() != grid_.points_per_cell()) {
    error = "frame identity mismatch: holds (cell " +
            std::to_string(loaded.cell_index) + ", campaign " +
            std::to_string(loaded.campaign) + ", replay_seed " +
            std::to_string(loaded.replay_seed) + ", " +
            std::to_string(loaded.points.size()) + " points), expected (cell " +
            std::to_string(cell_index) + ", campaign " +
            std::to_string(campaign) + ", replay_seed " +
            std::to_string(replay_seed) + ", " +
            std::to_string(grid_.points_per_cell()) + " points)";
    return false;
  }
  cells_[cell_index] = std::move(loaded);
  return true;
}

ReplayGridReport ReplayGridJob::report(scenario::GridOutcome outcome) {
  ReplayGridReport report;
  report.points.reserve(cells_.size() * grid_.points_per_cell());
  for (std::optional<ReplayGridCell>& cell : cells_) {
    if (!cell) continue;
    for (ReplayGridPoint& p : cell->points)
      report.points.push_back(std::move(p));
    cell.reset();
  }
  report.fingerprint = combine_replay_points(report.points);
  report.failed_cells = std::move(outcome.failed_cells);
  report.threads_used = outcome.workers;
  report.wall_seconds = outcome.wall_seconds;
  report.retries = outcome.retries;
  report.resumed_cells = outcome.resumed_cells;
  return report;
}

}  // namespace onion::detection

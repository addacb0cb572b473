#include "scenario/engine.hpp"

#include <algorithm>
#include <cmath>

#include "graph/metrics.hpp"

namespace onion::scenario {

namespace {
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
}  // namespace

CampaignEngine::CampaignEngine(const ScenarioSpec& spec, SnapshotSink& sink,
                               TraceSink* trace)
    : spec_(spec),
      sink_(sink),
      trace_(trace),
      rng_(spec.seed),
      metrics_rng_(rng_.split()),
      net_(core::OverlayNetwork::random_regular(
          spec.initial_size, spec.degree, overlay_config(spec), rng_)),
      ddsr_(net_.graph_mut(), ddsr_policy(spec), rng_),
      tracker_(net_) {
  ONION_EXPECTS(spec_.metrics.period > 0);

  // Compile the attack schedule: standalone phases first, then the wave
  // plan unrolled onto an absolute clock — each wave runs for its
  // duration, then the overlay heals through the quiet gap before the
  // next wave begins.
  phases_ = spec_.attacks;
  wave_base_ = phases_.size();
  SimTime wave_clock = spec_.waves.start;
  for (const AttackWave& wave : spec_.waves.waves) {
    AttackPhase phase = wave.attack;
    phase.start = wave_clock;
    phase.stop = wave_clock + wave.duration;
    phases_.push_back(phase);
    wave_clock = phase.stop + wave.quiet_after;
  }
  wave_takedowns_.resize(spec_.waves.waves.size(), 0);
  soap_.resize(phases_.size());

  // Every takedown kind but the random one picks the best-scored bot:
  // targeted and centrality strikes are rankings re-surveyed before
  // every strike.
  rankings_.resize(phases_.size());
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const AttackPhase& phase = phases_[i];
    const std::size_t pivots = phase.betweenness_pivots;
    if (phase.kind == AttackKind::TargetedTakedown)
      rankings_[i] = Ranking{.metric = RankMetric::Degree, .pivots = pivots};
    if (phase.kind == AttackKind::CentralityTakedown)
      rankings_[i] = Ranking{.metric = RankMetric::SampledBetweenness,
                             .pivots = pivots};
    if (phase.kind == AttackKind::AdaptiveTakedown)
      rankings_[i] = Ranking{.metric = phase.rank,
                             .refresh_period = phase.refresh_period,
                             .pivots = pivots};
  }

  if (spec_.defense.charge_healing) {
    // Defense-consistent healing: every DDSR repair/refill edge becomes
    // a peering request against the PoW/rate-limit policy. An eviction
    // it causes is mended the same way a bootstrap eviction is.
    ddsr_.set_connector([this](NodeId a, NodeId b) {
      emit(TraceEventKind::HealPeering, a, b);
      const core::PeerDecision decision = peer(a, b);
      return decision == core::PeerDecision::AcceptedWithCapacity ||
             decision == core::PeerDecision::AcceptedEvicted;
    });
  }
}

void CampaignEngine::every(SimTime first, SimTime stop,
                           std::function<SimTime()> step) {
  chains_.push_back(Chain{stop, std::move(step)});
  arm_chain(chains_.size() - 1, first);
}

void CampaignEngine::arm_chain(std::size_t chain, SimTime t) {
  if (t >= std::min(chains_[chain].stop, spec_.horizon)) return;
  // The step runs (and draws) before its successor is scheduled.
  sim_.schedule_at(t, [this, chain] {
    arm_chain(chain, chains_[chain].step());
  });
}

MetricsSnapshot CampaignEngine::run() {
  ONION_EXPECTS(!ran_);
  ran_ = true;
  if (trace_ != nullptr) trace_->on_begin(spec_, net_.honest_nodes());
  take_snapshot();  // the t = 0 baseline
  const SimTime horizon = spec_.horizon;
  if (horizon == 0) return last_;

  if (spec_.churn.session_leaves) {
    // Per-bot sessions: the initial population draws its lifetimes up
    // front, in node order (the draws happen even for sessions that
    // outlive the horizon, so the stream position is spec-independent).
    for (const NodeId u : net_.honest_nodes())
      arm_session_leave(u, sample_session(spec_.churn.session, rng_));
  }
  if (spec_.churn.joins_per_hour > 0.0)
    every(exp_gap(spec_.churn.joins_per_hour), horizon, [this] {
      do_join();
      return sim_.now() + exp_gap(spec_.churn.joins_per_hour);
    });
  if (!spec_.churn.session_leaves && spec_.churn.leaves_per_hour > 0.0)
    every(exp_gap(spec_.churn.leaves_per_hour), horizon, [this] {
      do_leave();
      return sim_.now() + exp_gap(spec_.churn.leaves_per_hour);
    });
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const AttackPhase& phase = phases_[i];
    if (phase.stop <= phase.start || phase.start >= horizon) continue;
    if (i >= wave_base_) {
      // Wave boundary marker: a no-op event (draws nothing) that stamps
      // the wave's opening into the trace.
      const std::size_t wave_index = i - wave_base_;
      sim_.schedule_at(phase.start, [this, wave_index, i] {
        emit(TraceEventKind::WaveStart, wave_index,
             static_cast<std::uint64_t>(phases_[i].kind));
      });
    }
    if (phase.kind == AttackKind::SoapInjection) {
      every(phase.start, phase.stop, [this, i] {
        return do_soap_tick(i) ? sim_.now() + phases_[i].soap_tick
                               : kEndChain;
      });
    } else if (phase.takedowns_per_hour > 0.0) {
      const SimDuration period =
          rankings_[i] ? rankings_[i]->refresh_period : 0;
      if (period > 0 && period != kNeverRefresh)
        every(phase.start, phase.stop, [this, i, period] {
          do_refresh(i);
          return sim_.now() + period;
        });
      every(phase.start + exp_gap(phase.takedowns_per_hour), phase.stop,
            [this, i] {
              do_takedown(i);
              return sim_.now() + exp_gap(phases_[i].takedowns_per_hour);
            });
    }
  }
  if (spec_.defense.rate_limit_per_round !=
      std::numeric_limits<std::size_t>::max())
    every(spec_.defense.round, horizon, [this] {
      do_round();
      return sim_.now() + spec_.defense.round;
    });
  arm_snapshot(std::min<SimTime>(spec_.metrics.period, horizon));

  events_executed_ = sim_.run_until(horizon);
  return last_;
}

// --- churn -----------------------------------------------------------

void CampaignEngine::arm_session_leave(NodeId bot, SimTime t) {
  if (t >= spec_.horizon) return;  // the session outlives the campaign
  sim_.schedule_at(t, [this, bot] { do_session_leave(bot); });
}

void CampaignEngine::do_join() {
  ++counters_.joins;
  const NodeId id = net_.add_node(/*honest=*/true);
  emit(TraceEventKind::Join, id);
  // Ids are never reused, so the newcomer is the top honest rank and the
  // rank range [0, honest_alive − 1) holds every other bot.
  const std::uint64_t others = tracker_.honest_alive() - 1;
  ONION_EXPECTS(tracker_.honest_at(others) == id);
  if (others == 0) return;
  // Bootstrap peering: ask `degree` random bots. A full target accepts
  // only by evicting (the degree-0 newcomer always undercuts); the
  // evicted bot refills from its NoN so the join cannot leave holes.
  // Ranks follow ascending ids, and peering moves edges, never bots, so
  // each rank resolves to the bot it named when it was drawn.
  const std::size_t want = std::min<std::uint64_t>(spec_.degree, others);
  for (const std::size_t rank : rng_.sample_indices(others, want)) {
    const NodeId target = tracker_.honest_at(rank);
    emit(TraceEventKind::Peering, id, target);
    peer(id, target);
  }
  net_.refill(id);  // top up if some requests were rejected/limited
  if (spec_.churn.session_leaves)
    arm_session_leave(
        id, sim_.now() + sample_session(spec_.churn.session, rng_));
}

core::PeerDecision CampaignEngine::peer(NodeId requester, NodeId target) {
  NodeId evicted = graph::kInvalidNode;
  const core::PeerDecision decision =
      net_.request_peering(requester, target, &evicted);
  if (evicted != graph::kInvalidNode) net_.refill(evicted);
  return decision;
}

CampaignEngine::NodeId CampaignEngine::draw_honest() {
  // Tracker order statistics instead of materializing honest_nodes():
  // honest_at(uniform(count)) draws the same bits and lands on the same
  // bot as rng_.pick over the ascending id vector, in O(log n) not O(n).
  return tracker_.honest_at(rng_.uniform(tracker_.honest_alive()));
}

void CampaignEngine::do_leave() {
  if (tracker_.honest_alive() <= 1) return;
  const NodeId victim = draw_honest();
  ++counters_.leaves;
  emit(TraceEventKind::Leave, victim);
  remove_bot(victim, spec_.churn.heal_on_leave);
}

void CampaignEngine::do_session_leave(NodeId bot) {
  // The session may have been cut short by an attack; only a bot that
  // is still alive can leave, and never the last one standing.
  if (!net_.alive(bot)) return;
  if (tracker_.honest_alive() <= 1) return;
  ++counters_.leaves;
  emit(TraceEventKind::Leave, bot);
  remove_bot(bot, spec_.churn.heal_on_leave);
}

void CampaignEngine::remove_bot(NodeId bot, bool heal) {
  if (heal) {
    ddsr_.remove_node(bot);
  } else {
    ddsr_.remove_node_no_repair(bot);
  }
}

// --- attacks ---------------------------------------------------------

void CampaignEngine::do_takedown(std::size_t phase_index) {
  if (tracker_.honest_alive() <= 1) return;
  std::optional<Ranking>& ranking = rankings_[phase_index];
  const NodeId victim = ranking ? pick_victim(*ranking) : draw_honest();
  ++counters_.takedowns;
  if (phase_index >= wave_base_)
    ++wave_takedowns_[phase_index - wave_base_];
  emit(TraceEventKind::Takedown, victim);
  remove_bot(victim, phases_[phase_index].heal);
}

namespace {
/// Index >= score table size means the node joined after the ranking
/// was computed: unsurveyed, score 0.
double score_of(const std::vector<double>& score, graph::NodeId u) {
  return u < score.size() ? score[u] : 0.0;
}

/// The first (lowest-id) honest bot of the highest score.
graph::NodeId best_by_score(const std::vector<double>& score,
                            const std::vector<graph::NodeId>& honest) {
  graph::NodeId best = honest.front();
  double best_score = score_of(score, best);
  for (const graph::NodeId u : honest) {
    if (score_of(score, u) > best_score) {
      best_score = score_of(score, u);
      best = u;
    }
  }
  return best;
}
}  // namespace

CampaignEngine::NodeId CampaignEngine::pick_victim(Ranking& ranking) {
  // Refresh period 0 re-surveys before every strike: the refresh-cadence
  // → ∞ limit, which is what targeted and centrality takedowns are.
  // Otherwise the first strike ranks lazily if no scheduled refresh ran
  // yet, and the cached (stale) table serves until the next refresh.
  if (!ranking.ranked || ranking.refresh_period == 0) refresh(ranking);
  return best_by_score(ranking.score, net_.honest_nodes());
}

void CampaignEngine::refresh(Ranking& ranking) {
  const graph::Graph& g = net_.graph();
  switch (ranking.metric) {
    case RankMetric::SampledBetweenness:
      ranking.score = graph::betweenness_sampled(g, ranking.pivots, rng_);
      break;
    case RankMetric::Degree:
      ranking.score.assign(g.capacity(), 0.0);
      for (NodeId u = 0; u < g.capacity(); ++u)
        if (g.alive(u)) ranking.score[u] = static_cast<double>(g.degree(u));
      break;
  }
  ranking.ranked = true;
}

void CampaignEngine::do_refresh(std::size_t phase_index) {
  Ranking& ranking = *rankings_[phase_index];
  refresh(ranking);
  if (trace_ != nullptr) {  // the top-target scan is trace-only work
    const std::vector<NodeId> honest = net_.honest_nodes();
    if (!honest.empty())
      emit(TraceEventKind::AdaptiveRefresh, phase_index,
           best_by_score(ranking.score, honest));
  }
}

bool CampaignEngine::do_soap_tick(std::size_t phase_index) {
  std::unique_ptr<mitigation::SoapCampaign>& campaign = soap_[phase_index];
  if (!campaign) {
    if (tracker_.honest_alive() == 0) return false;
    campaign = std::make_unique<mitigation::SoapCampaign>(
        net_, mitigation::SoapConfig{}, rng_);
    const NodeId captured = draw_honest();
    emit(TraceEventKind::SoapCapture, captured);
    campaign->capture(captured);
  }
  bool progressing = true;
  for (std::size_t r = 0;
       r < phases_[phase_index].soap_rounds_per_tick && progressing; ++r)
    progressing = campaign->step();
  if (trace_ != nullptr)  // contained_count() is O(discovered)
    emit(TraceEventKind::SoapRound, campaign->clones_created(),
         campaign->contained_count());
  return progressing;
}

// --- defense rounds --------------------------------------------------

void CampaignEngine::do_round() {
  net_.begin_round();
  // Rate-limited bots give up until the next round (the overlay refill
  // contract), so each fresh round retries every bot still below dmin —
  // without this, a newcomer whose whole bootstrap round was throttled
  // would stay isolated forever.
  for (const NodeId v : net_.honest_nodes())
    if (net_.graph().degree(v) < net_.config().dmin) net_.refill(v);
}

// --- metrics ---------------------------------------------------------

void CampaignEngine::arm_snapshot(SimTime t) {
  sim_.schedule_at(t, [this, t] {
    take_snapshot();
    if (t >= spec_.horizon) return;
    arm_snapshot(
        std::min<SimTime>(t + spec_.metrics.period, spec_.horizon));
  });
}

void CampaignEngine::take_snapshot() {
  last_ = compute_snapshot();
  sink_.on_snapshot(last_);
}

MetricsSnapshot CampaignEngine::compute_snapshot() {
  MetricsSnapshot s;
  s.time = sim_.now();
  const graph::Graph& g = net_.graph();

  // Structural fields come from the per-mutation tracker, which settles
  // the window's deletions here with one search per affected component —
  // byte-identical to the full sweep this replaced (sweep_structural).
  tracker_.fill(s, spec_.metrics.degree_histogram);

  if (spec_.metrics.diameter_sweeps > 0 && s.honest_alive >= 2)
    s.diameter = graph::diameter_double_sweep(
        g, spec_.metrics.diameter_sweeps, metrics_rng_);

  s.joins = counters_.joins;
  s.leaves = counters_.leaves;
  s.takedowns = counters_.takedowns;
  const core::DdsrStats& stats = ddsr_.stats();
  s.repair_edges = stats.repair_edges_added;
  s.prune_edges = stats.prune_edges_removed;
  s.refill_edges = stats.refill_edges_added;
  s.repair_messages = stats.maintenance_messages();
  for (const auto& campaign : soap_) {
    if (!campaign) continue;
    s.soap_clones += campaign->clones_created();
    s.soap_contained += campaign->contained_count();
  }
  s.wave_takedowns = wave_takedowns_;
  return s;
}

void CampaignEngine::emit(TraceEventKind kind, std::uint64_t a,
                          std::uint64_t b) {
  if (trace_ == nullptr) return;
  trace_->on_event(CampaignEvent{sim_.now(), kind, a, b});
}

SimDuration CampaignEngine::exp_gap(double per_hour) {
  ONION_EXPECTS(per_hour > 0.0);
  const double u = rng_.uniform_real();
  const double ms =
      -std::log1p(-u) / per_hour * static_cast<double>(kHour);
  constexpr double kMaxGap = 9.0e15;  // far past any sane horizon
  if (!(ms < kMaxGap)) return static_cast<SimDuration>(kMaxGap);
  return ms < 1.0 ? SimDuration{1} : static_cast<SimDuration>(ms);
}

}  // namespace onion::scenario

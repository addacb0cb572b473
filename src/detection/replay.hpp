// Campaign→telemetry replay: turns a recorded scenario campaign
// (scenario/trace.hpp) into the TrafficTrace an on-path defender would
// have captured while that campaign ran — the bridge between the
// churn-plus-attack dynamics the scenario engine produces and the
// detector suite in this module, replacing hand-rolled synthetic bot
// populations with traces whose membership, timing, and activity come
// from an actual simulated overlay.
//
// Each honest campaign bot becomes a monitored host that emits exactly
// what the paper says an OnionBot emits: encrypted, cell-quantized
// flows to public Tor relays, nothing else. Lifetimes bound the
// emission — a bot taken down mid-campaign goes dark at its takedown
// time — and campaign events surface only as *more cells to the guard*:
// bootstrap peering requests and SOAP rounds each add a cell flow, which
// is precisely the paper's point that every observable activity
// collapses into the same shape benign Tor clients produce.
//
// Around the campaign population, the compositor stacks configurable
// benign background (web + legitimate Tor users) and co-resident legacy
// botnet families (centralized/DGA/fast-flux/P2P-plaintext), so one
// replayed trace carries every family's ground truth at once and a
// single detector sweep scores them all.
//
// Everything derives from (campaign trace, config): equal inputs
// reproduce a byte-identical TrafficTrace (tests/replay_test.cpp).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "detection/roc.hpp"
#include "detection/telemetry.hpp"
#include "detection/traffic.hpp"
#include "scenario/trace.hpp"

namespace onion::detection {

/// What to synthesize around (and from) the recorded campaign.
struct ReplayConfig {
  /// Telemetry-synthesis seed, independent of the campaign seed: one
  /// recorded campaign replays into many sensor-noise realizations.
  std::uint64_t seed = 1;

  /// Observation window; 0 means the campaign horizon.
  SimDuration window = 0;

  /// Benign background (see emit_benign in detection/traffic.hpp).
  std::size_t benign_web = 120;
  std::size_t benign_tor = 20;
  std::size_t tor_relays = 64;
  SimDuration benign_tor_mean_gap = 10 * kMinute;

  /// Co-resident legacy botnet populations (0 = absent). They live in
  /// the same monitored network for the whole window.
  std::size_t centralized_bots = 0;
  std::size_t dga_bots = 0;
  std::size_t fastflux_bots = 0;
  std::size_t p2p_bots = 0;

  /// Cap on how many campaign bots become monitored hosts (in node-id
  /// order, i.e. oldest first); kAllBots maps the whole population, 0
  /// excludes it entirely (legacy-only rows in the evasion matrix).
  static constexpr std::size_t kAllBots =
      std::numeric_limits<std::size_t>::max();
  std::size_t max_onion_bots = kAllBots;

  /// Mean gap between an idle OnionBot's guard contacts (heartbeats,
  /// NoN shares — matches the benign Tor users' cadence by design).
  SimDuration onion_mean_gap = 10 * kMinute;

  /// First host id to allocate (composition offset).
  HostId first_host = 0;
};

/// A replayed capture plus per-population ground truth. `trace.infected`
/// holds the union of every bot family; the per-family lists let the
/// evasion matrix score each family separately on one trace.
struct ReplayResult {
  TrafficTrace trace;
  /// Campaign population in node-id order; bots born at or after the
  /// observation window's end are omitted (never observable, so they
  /// must not enter the ground truth a defender is scored against).
  std::vector<HostId> onion_bots;
  std::vector<HostId> centralized_bots;
  std::vector<HostId> dga_bots;
  std::vector<HostId> fastflux_bots;
  std::vector<HostId> p2p_bots;
  std::vector<HostId> benign_web_hosts;
  std::vector<HostId> benign_tor_users;
};

/// Synthesizes the defender's capture from a recorded campaign: the
/// replay_trace_streaming stream (detection/replay_grid.hpp) collected
/// into a TrafficTrace, DNS log included, with `hosts` and `infected`
/// ascending. The campaign must have begun (CampaignEngine::run
/// delivers on_begin); a trace with no events is fine — a static
/// overlay replays as pure steady-state heartbeat traffic. Takes any
/// TraceSource — the in-memory CampaignTrace or a streamed
/// trace_io::TraceReader produce byte-identical TrafficTraces for the
/// same recorded campaign.
ReplayResult replay_trace(const scenario::TraceSource& campaign,
                          const ReplayConfig& config);

/// Folds a replay's per-population host lists into the ROC layer's
/// named GroundTruth, so RocSweep::run(trace, truth) resolves every
/// family on one sweep. Population order is fixed (onion, centralized,
/// dga, fastflux, p2p, benign_web, benign_tor — empty ones omitted), so
/// the family-resolved fingerprint is a function of the replay alone.
GroundTruth replay_ground_truth(const ReplayResult& result);

}  // namespace onion::detection

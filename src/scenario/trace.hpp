// The campaign event tap: where snapshot sinks see the overlay's state
// once per metrics period, a TraceSink sees every discrete thing the
// campaign *did* — joins, leaves, takedowns, bootstrap peering requests,
// SOAP captures and rounds — as it happens, in simulator order. A
// recorded CampaignTrace is the replayable record the telemetry
// synthesizer (detection/replay.hpp) turns into defender-visible
// traffic: per-bot lifetimes bound when each bot can emit flows, and
// the event stream marks when it was busy bootstrapping or under SOAP.
//
// The tap is passive. It draws nothing from the engine's RNG streams
// and mutates nothing, so attaching a TraceSink can never perturb a
// campaign: snapshot fingerprints with and without a tap are identical
// (tests/replay_test.cpp enforces this).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/codec.hpp"
#include "graph/graph.hpp"
#include "scenario/snapshot.hpp"
#include "scenario/spec.hpp"

namespace onion::scenario {

/// What happened. The CampaignEvent fields `a` and `b` are overloaded
/// per kind (documented inline); kinds the campaign never fired simply
/// never appear in the stream.
enum class TraceEventKind : std::uint8_t {
  Join,         // a = newcomer node id
  Leave,        // a = departing node id
  Takedown,     // a = victim node id
  Peering,      // a = requester node id, b = target node id (bootstrap)
  SoapCapture,  // a = captured bot node id
  SoapRound,    // a = cumulative clones created, b = cumulative contained
  // Appended kinds (serialized values are stable; streams recorded
  // before these existed simply never contain them):
  WaveStart,        // a = wave index in the plan, b = AttackKind value
  AdaptiveRefresh,  // a = phase index, b = top-ranked victim node id
  HealPeering,      // a = requester, b = target (charged DDSR healing)
};

/// One campaign event, stamped with simulated time.
struct CampaignEvent {
  SimTime at = 0;
  TraceEventKind kind = TraceEventKind::Join;
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  friend bool operator==(const CampaignEvent&,
                         const CampaignEvent&) = default;

  /// Wire layout (common/codec.hpp), in encoding order.
  static auto fields(auto& s, auto&& v) {
    return v("CampaignEvent", codec::u64("at", s.at),
             codec::enum_u8<TraceEventKind::HealPeering>("kind", s.kind),
             codec::u64("a", s.a), codec::u64("b", s.b));
  }
};

/// Receives the campaign's event stream. Implementations must not
/// mutate the campaign; on_begin arrives once, before any event.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_begin(const ScenarioSpec& spec,
                        const std::vector<graph::NodeId>& initial) = 0;
  virtual void on_event(const CampaignEvent& e) = 0;
};

/// [birth, death) in simulated time; death == the campaign horizon for
/// bots still alive at the end.
struct BotLifetime {
  graph::NodeId node = graph::kInvalidNode;
  SimTime birth = 0;
  SimTime death = 0;
};

/// A recorded campaign, abstracted from where the record lives: the
/// in-memory CampaignTrace below and the on-disk trace_io::TraceReader
/// both implement it, so consumers (detection::replay_trace, the replay
/// grid) are indifferent to whether the event log is a vector or a
/// chunk-streamed file. Event iteration is forward-only and must visit
/// the stream in recorded order; implementations may hold O(window)
/// state, never O(events).
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// The spec echo delivered by on_begin (valid once began()).
  virtual const ScenarioSpec& spec() const = 0;
  /// The initial honest population, in allocation order.
  virtual const std::vector<graph::NodeId>& initial_nodes() const = 0;
  /// Whether a campaign was recorded (on_begin arrived).
  virtual bool began() const = 0;
  /// Visits every recorded event in simulator order.
  virtual void for_each_event(
      const std::function<void(const CampaignEvent&)>& fn) const = 0;

  SimTime horizon() const { return spec().horizon; }

  /// Per-bot membership intervals, derived from the event stream in one
  /// forward pass: initial nodes are born at 0, Join events at their
  /// timestamp; the first Leave/Takedown naming a node ends it,
  /// otherwise it lives to the horizon. Sorted by node id (node ids are
  /// never reused).
  std::vector<BotLifetime> lifetimes() const;
};

/// Records the whole campaign: spec echo, the initial honest
/// population, every event, and (when also wired into the engine's
/// snapshot fanout) the per-snapshot structure stream with its
/// interleaving preserved. This is the input to detection::replay_trace.
class CampaignTrace final : public TraceSink,
                           public SnapshotSink,
                           public TraceSource {
 public:
  // TraceSink.
  void on_begin(const ScenarioSpec& spec,
                const std::vector<graph::NodeId>& initial) override;
  void on_event(const CampaignEvent& e) override;

  // SnapshotSink: records the snapshot plus how many events preceded it,
  // so differential tests can replay the exact interleaving.
  void on_snapshot(const MetricsSnapshot& s) override;

  // TraceSource.
  const ScenarioSpec& spec() const override { return spec_; }
  bool began() const override { return began_; }
  const std::vector<graph::NodeId>& initial_nodes() const override {
    return initial_;
  }
  void for_each_event(const std::function<void(const CampaignEvent&)>& fn)
      const override {
    for (const CampaignEvent& e : events_) fn(e);
  }

  const std::vector<CampaignEvent>& events() const { return events_; }
  const std::vector<MetricsSnapshot>& snapshots() const {
    return snapshots_;
  }
  /// Events recorded before snapshot `i` arrived.
  std::size_t events_before(std::size_t i) const {
    return events_before_.at(i);
  }

  /// codec::fingerprint of the event stream: chained SHA-256 (hex) over
  /// each event's encoding — the event-log analogue of HashSink's
  /// snapshot fingerprint.
  std::string fingerprint() const;

 private:
  ScenarioSpec spec_;
  bool began_ = false;
  std::vector<graph::NodeId> initial_;
  std::vector<CampaignEvent> events_;
  std::vector<MetricsSnapshot> snapshots_;
  std::vector<std::size_t> events_before_;
};

}  // namespace onion::scenario

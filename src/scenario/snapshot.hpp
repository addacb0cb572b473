// Periodic campaign telemetry. The engine emits one MetricsSnapshot per
// metrics period through a pluggable SnapshotSink; snapshots serialize
// to a canonical byte string, so a whole run has a single SHA-256
// fingerprint — the replay-determinism contract the test tier enforces
// (equal spec + equal seed => byte-identical stream).
#pragma once

#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/codec.hpp"
#include "crypto/sha256.hpp"

namespace onion::scenario {

/// "Diameter not computed" marker (MetricsSpec::diameter_sweeps == 0).
constexpr std::uint64_t kNoDiameter = ~std::uint64_t{0};

/// One periodic measurement of the campaign. Structural metrics cover
/// the honest bots only — clones are the defender's instrument, not part
/// of the botnet being measured; counters are cumulative since t = 0.
struct MetricsSnapshot {
  SimTime time = 0;

  // --- structure -----------------------------------------------------
  std::uint64_t honest_alive = 0;
  std::uint64_t sybil_alive = 0;
  std::uint64_t honest_edges = 0;      // honest-honest links
  std::uint64_t components = 0;        // over honest alive bots
  std::uint64_t largest_component = 0;
  double largest_fraction = 0.0;       // largest / honest_alive (0 if none)
  double average_degree = 0.0;         // honest bots, all incident edges
  std::uint64_t diameter = kNoDiameter;  // largest honest component
  /// degree_histogram[d] = honest alive bots of degree d (empty when
  /// disabled in MetricsSpec).
  std::vector<std::uint32_t> degree_histogram;

  // --- cumulative campaign counters ---------------------------------
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t takedowns = 0;
  std::uint64_t repair_edges = 0;
  std::uint64_t prune_edges = 0;
  std::uint64_t refill_edges = 0;
  std::uint64_t repair_messages = 0;  // DdsrStats::maintenance_messages
  std::uint64_t soap_clones = 0;
  std::uint64_t soap_contained = 0;
  /// wave_takedowns[w] = cumulative victims attributed to wave `w` of
  /// the spec's WavePlan. Empty unless the campaign runs a wave plan;
  /// an empty vector serializes to nothing, so plan-free streams (and
  /// their committed golden fingerprints) are byte-identical to the
  /// pre-wave encoding.
  std::vector<std::uint64_t> wave_takedowns;

  bool connected() const { return components <= 1; }

  /// Wire layout (common/codec.hpp), in encoding order.
  static auto fields(auto& s, auto&& v) {
    return v("MetricsSnapshot", codec::u64("time", s.time),
             codec::u64("honest_alive", s.honest_alive),
             codec::u64("sybil_alive", s.sybil_alive),
             codec::u64("honest_edges", s.honest_edges),
             codec::u64("components", s.components),
             codec::u64("largest_component", s.largest_component),
             codec::f64("largest_fraction", s.largest_fraction),
             codec::f64("average_degree", s.average_degree),
             codec::u64("diameter", s.diameter),
             codec::u64("joins", s.joins),
             codec::u64("leaves", s.leaves),
             codec::u64("takedowns", s.takedowns),
             codec::u64("repair_edges", s.repair_edges),
             codec::u64("prune_edges", s.prune_edges),
             codec::u64("refill_edges", s.refill_edges),
             codec::u64("repair_messages", s.repair_messages),
             codec::u64("soap_clones", s.soap_clones),
             codec::u64("soap_contained", s.soap_contained),
             codec::u32s("degree_histogram", s.degree_histogram),
             codec::trailing("wave_takedowns", s.wave_takedowns));
  }
};

/// Where snapshots go. Implementations must not mutate the campaign.
class SnapshotSink {
 public:
  virtual ~SnapshotSink() = default;
  virtual void on_snapshot(const MetricsSnapshot& s) = 0;
};

/// Collects every snapshot; the programmatic consumer's sink.
class MemorySink final : public SnapshotSink {
 public:
  void on_snapshot(const MetricsSnapshot& s) override {
    snapshots_.push_back(s);
  }
  const std::vector<MetricsSnapshot>& snapshots() const {
    return snapshots_;
  }

  /// Relinquishes the collected series without copying (the sink is
  /// empty afterwards); the grid runner aggregates thousands of
  /// histogram-bearing snapshots per cell this way.
  std::vector<MetricsSnapshot> take() { return std::move(snapshots_); }

 private:
  std::vector<MetricsSnapshot> snapshots_;
};

/// Chains SHA-256 over the serialized snapshot stream; the final digest
/// fingerprints the whole run in O(1) memory (the golden-determinism
/// tests compare digests, never full streams).
class HashSink final : public SnapshotSink {
 public:
  void on_snapshot(const MetricsSnapshot& s) override;
  std::size_t count() const { return count_; }
  crypto::Sha256Digest digest() const;
  std::string hex_digest() const;

 private:
  crypto::Sha256 hasher_;
  std::size_t count_ = 0;
};

/// Prints one CSV row per snapshot (histogram omitted); `header`
/// controls the leading column-name row. Does not own the stream.
class CsvSink final : public SnapshotSink {
 public:
  explicit CsvSink(std::FILE* out, bool header = true)
      : out_(out), header_(header) {}
  void on_snapshot(const MetricsSnapshot& s) override;

 private:
  std::FILE* out_;
  bool header_;
};

/// Broadcasts to several sinks (e.g. CSV to stdout + hash for replay
/// verification in one run). Does not own the sinks.
class FanoutSink final : public SnapshotSink {
 public:
  explicit FanoutSink(std::vector<SnapshotSink*> sinks)
      : sinks_(std::move(sinks)) {}
  void on_snapshot(const MetricsSnapshot& s) override {
    for (SnapshotSink* sink : sinks_) sink->on_snapshot(s);
  }

 private:
  std::vector<SnapshotSink*> sinks_;
};

}  // namespace onion::scenario

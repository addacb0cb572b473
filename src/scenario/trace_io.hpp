// Streaming on-disk campaign traces: the file-format twin of the
// in-memory CampaignTrace, built so million-event campaigns can be
// recorded and replayed without ever holding the event log in RAM.
//
// A trace file is a sequence of self-validating frames in the exact
// wire discipline scenario/wire.hpp established for the grid transport
// (magic u64 | version u64 | payload_len u64 | payload | SHA-256):
//
//   header frame   TraceHeader: the full ScenarioSpec echo (its
//                  fields() order) + the initial node list
//   chunk frames   a bounded run of tagged records in simulator order:
//                  tag 0 = one encoded CampaignEvent, tag 1 = one
//                  length-prefixed encoded MetricsSnapshot (the
//                  event/snapshot interleaving is preserved exactly)
//   footer frame   fixed-size bookkeeping (TraceFooter): record counts,
//                  chunk count, and the chained event digest — the same
//                  digest CampaignTrace::fingerprint() renders, so the
//                  streamed and in-memory fingerprints agree bit-for-bit
//
// TraceWriter spools a running campaign to disk (it is a TraceSink +
// SnapshotSink like CampaignTrace) in O(chunk) memory, publishing the
// file atomically via common/fileio — a crashed recorder leaves no
// partial trace under the final name. TraceReader validates the header
// and footer on open (O(1): the footer frame is fixed-size, so
// truncation is caught before any chunk is read) and then iterates
// events/snapshots chunk-at-a-time, verifying each frame's digest as it
// streams — O(window) memory where the window is the writer's chunk
// bound, never O(events). Any torn, truncated, or bit-flipped region
// surfaces as a wire::WireError at open or at the damaged chunk
// (tests/trace_io_test.cpp rejects every byte-boundary truncation and
// every single-byte flip, mirroring tests/wire_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/fileio.hpp"
#include "crypto/sha256.hpp"
#include "scenario/trace.hpp"
#include "scenario/wire.hpp"

namespace onion::scenario::trace_io {

/// Chunk frame tag ("OBTCHK\x00\x01" big-endian). A chunk is a run of
/// tagged records with no struct of its own, so it is framed by
/// wire::frame directly; the header and footer carry their tags as
/// kFrameMagic. No trace frame parses as another, or as a grid frame.
inline constexpr std::uint64_t kChunkMagic = 0x4f425443484b0001ull;

/// Record tags inside a chunk payload.
inline constexpr std::uint8_t kEventTag = 0;
inline constexpr std::uint8_t kSnapshotTag = 1;

/// The header frame's content: the spec echo plus the initial honest
/// population — everything on_begin delivered, so a reader reconstructs
/// TraceSource::spec()/initial_nodes() without replaying the campaign.
struct TraceHeader {
  ScenarioSpec spec;
  std::vector<graph::NodeId> initial_nodes;

  /// Frame tag "OBTHDR\x00\x01" (scenario/wire.hpp).
  static constexpr std::uint64_t kFrameMagic = 0x4f42544844520001ull;
  /// Wire layout (common/codec.hpp), in encoding order.
  static auto fields(auto& s, auto&& v) {
    return v("TraceHeader", codec::nested("spec", s.spec),
             codec::list("initial_nodes", s.initial_nodes));
  }
};

/// The footer frame's content (fixed-size payload, so a reader finds it
/// at end-of-file in O(1) and a truncated file fails at open, not after
/// streaming megabytes of chunks).
struct TraceFooter {
  std::uint64_t event_count = 0;
  std::uint64_t snapshot_count = 0;
  std::uint64_t chunk_count = 0;
  /// Chained SHA-256 over the serialized event stream — the digest
  /// CampaignTrace::fingerprint() renders as hex.
  crypto::Sha256Digest event_digest{};

  /// Frame tag "OBTFTR\x00\x01" (scenario/wire.hpp).
  static constexpr std::uint64_t kFrameMagic = 0x4f42544654520001ull;
  /// Wire layout (common/codec.hpp), in encoding order.
  static auto fields(auto& s, auto&& v) {
    return v("TraceFooter", codec::u64("event_count", s.event_count),
             codec::u64("snapshot_count", s.snapshot_count),
             codec::u64("chunk_count", s.chunk_count),
             codec::raw("event_digest", s.event_digest));
  }
};

/// Serialized footer payload size: 3 u64 words + the raw digest.
inline constexpr std::size_t kFooterPayloadBytes =
    codec::fixed_size<TraceFooter>();
/// A complete footer frame on disk: frame header + payload + digest.
inline constexpr std::size_t kFooterFrameBytes =
    wire::kFrameHeaderBytes + kFooterPayloadBytes + wire::kFrameDigestBytes;

/// How the writer bounds its in-memory window.
struct TraceWriterConfig {
  /// Records (events + snapshots) per chunk frame; the reader's peak
  /// memory is one chunk, so this is the O(window) knob.
  std::size_t chunk_records = 8192;
};

/// Spools a campaign to disk as it runs: wire it into the engine like a
/// CampaignTrace (TraceSink for events, SnapshotSink — via FanoutSink —
/// for snapshots), then call finish() after the run to seal and
/// atomically publish the file. A writer destroyed unfinished removes
/// its temp file and publishes nothing.
class TraceWriter final : public TraceSink, public SnapshotSink {
 public:
  explicit TraceWriter(std::string path, TraceWriterConfig config = {});

  // TraceSink.
  void on_begin(const ScenarioSpec& spec,
                const std::vector<graph::NodeId>& initial) override;
  void on_event(const CampaignEvent& e) override;

  // SnapshotSink.
  void on_snapshot(const MetricsSnapshot& s) override;

  /// Flushes the open chunk, writes the footer, and commits the file.
  /// Requires on_begin to have arrived; call exactly once.
  void finish();

  bool finished() const { return finished_; }
  std::uint64_t event_count() const { return events_; }
  std::uint64_t snapshot_count() const { return snapshots_; }
  std::uint64_t chunk_count() const { return chunks_; }
  std::size_t bytes_written() const { return writer_.bytes_written(); }

  /// The event-stream fingerprint (hex), identical to what an in-memory
  /// CampaignTrace recording the same campaign reports. Valid after
  /// finish().
  const std::string& fingerprint() const;

 private:
  void flush_chunk();

  TraceWriterConfig config_;
  AtomicFileWriter writer_;
  bool began_ = false;
  bool finished_ = false;
  Bytes chunk_;
  std::size_t chunk_records_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t snapshots_ = 0;
  std::uint64_t chunks_ = 0;
  crypto::Sha256 event_hasher_;
  std::string fingerprint_;
};

/// Streams a recorded trace file back as a TraceSource. Construction
/// validates the header and footer frames (throwing wire::WireError on
/// any defect, including a missing footer — i.e. an unfinished or
/// truncated recording); iteration re-opens the file, so a const reader
/// is safely shared across replay-grid worker threads. Peak memory per
/// iteration is one chunk frame plus the decoded record — O(window).
class TraceReader final : public TraceSource {
 public:
  explicit TraceReader(std::string path);

  // TraceSource.
  const ScenarioSpec& spec() const override { return header_.spec; }
  const std::vector<graph::NodeId>& initial_nodes() const override {
    return header_.initial_nodes;
  }
  bool began() const override { return true; }
  /// Streams every event through `fn`, verifying each chunk digest and,
  /// at the footer, that the chunk/event counts match — a file damaged
  /// after open still cannot silently drop a suffix.
  void for_each_event(
      const std::function<void(const CampaignEvent&)>& fn) const override;

  /// Streams every recorded snapshot in order (codec::decode, a
  /// bit-for-bit round-trip).
  void for_each_snapshot(
      const std::function<void(const MetricsSnapshot&)>& fn) const;

  /// Recomputes the chained event digest from the chunk stream and
  /// checks it against the footer before returning it (hex) — equal to
  /// CampaignTrace::fingerprint() of the same campaign by construction.
  std::string fingerprint() const;

  std::uint64_t event_count() const { return footer_.event_count; }
  std::uint64_t snapshot_count() const { return footer_.snapshot_count; }
  std::uint64_t chunk_count() const { return footer_.chunk_count; }
  std::size_t file_bytes() const { return file_bytes_; }

 private:
  /// Visits every record in order; returns the verified chunk count.
  std::uint64_t for_each_record(
      const std::function<void(std::uint8_t tag, BytesView body)>& fn) const;

  std::string path_;
  TraceHeader header_;
  TraceFooter footer_;
  std::size_t file_bytes_ = 0;
  std::size_t chunks_begin_ = 0;  // first byte past the header frame
};

}  // namespace onion::scenario::trace_io

#include "scenario/trace_io.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"

namespace onion::scenario::trace_io {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw wire::WireError("trace: " + what);
}

/// Minimal RAII stdio handle for the reader's streaming passes.
class File {
 public:
  explicit File(const std::string& path)
      : f_(std::fopen(path.c_str(), "rb")) {
    if (f_ == nullptr) bad("cannot open " + path);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  ~File() {
    if (f_ != nullptr) std::fclose(f_);
  }

  void seek(std::size_t pos) {
    if (std::fseek(f_, static_cast<long>(pos), SEEK_SET) != 0)
      bad("seek failed");
  }

  std::size_t size() {
    if (std::fseek(f_, 0, SEEK_END) != 0) bad("seek failed");
    const long end = std::ftell(f_);
    if (end < 0) bad("tell failed");
    return static_cast<std::size_t>(end);
  }

  void read_exact(std::uint8_t* dst, std::size_t n) {
    if (std::fread(dst, 1, n, f_) != n)
      bad("unexpected end of file (truncated frame)");
  }

 private:
  std::FILE* f_;
};

constexpr std::size_t kFrameOverhead =
    wire::kFrameHeaderBytes + wire::kFrameDigestBytes;

/// Reads the whole frame starting at `pos` (which must end by `limit`),
/// unvalidated: magic, version and digest are wire::unframe's job. The
/// length word is sanity-checked against the region *before*
/// allocating, so a corrupted length cannot provoke a giant allocation
/// — it reports as a malformed frame.
Bytes read_frame(File& f, std::size_t pos, std::size_t limit) {
  if (limit < pos || limit - pos < kFrameOverhead)
    bad("frame header overruns the file region");
  Bytes frame(wire::kFrameHeaderBytes);
  f.seek(pos);
  f.read_exact(frame.data(), frame.size());
  const std::uint64_t payload_len =
      read_be64(BytesView(frame.data() + 16, 8));
  if (payload_len > limit - pos - kFrameOverhead)
    bad("frame length " + std::to_string(payload_len) +
        " overruns the file region");
  const std::size_t body =
      static_cast<std::size_t>(payload_len) + wire::kFrameDigestBytes;
  frame.resize(wire::kFrameHeaderBytes + body);
  f.read_exact(frame.data() + wire::kFrameHeaderBytes, body);
  return frame;
}

}  // namespace

TraceWriter::TraceWriter(std::string path, TraceWriterConfig config)
    : config_(config), writer_(std::move(path)) {
  ONION_EXPECTS(config_.chunk_records > 0);
}

void TraceWriter::on_begin(const ScenarioSpec& spec,
                           const std::vector<graph::NodeId>& initial) {
  ONION_EXPECTS(!began_);  // one campaign per trace file
  began_ = true;
  writer_.append(wire::encode_frame(TraceHeader{spec, initial}));
}

void TraceWriter::on_event(const CampaignEvent& e) {
  ONION_EXPECTS(began_ && !finished_);
  chunk_.push_back(kEventTag);
  const std::size_t body = chunk_.size();
  codec::encode_into(chunk_, e);
  event_hasher_.update(BytesView(chunk_).subspan(body));
  ++events_;
  if (++chunk_records_ >= config_.chunk_records) flush_chunk();
}

void TraceWriter::on_snapshot(const MetricsSnapshot& s) {
  ONION_EXPECTS(began_ && !finished_);
  chunk_.push_back(kSnapshotTag);
  put_u64(chunk_, codec::encoded_size(s));
  codec::encode_into(chunk_, s);
  ++snapshots_;
  if (++chunk_records_ >= config_.chunk_records) flush_chunk();
}

void TraceWriter::flush_chunk() {
  if (chunk_.empty()) return;
  writer_.append(wire::frame(kChunkMagic, chunk_));
  chunk_.clear();
  chunk_records_ = 0;
  ++chunks_;
}

void TraceWriter::finish() {
  ONION_EXPECTS(began_ && !finished_);
  flush_chunk();
  TraceFooter footer;
  footer.event_count = events_;
  footer.snapshot_count = snapshots_;
  footer.chunk_count = chunks_;
  footer.event_digest = event_hasher_.finalize();
  const Bytes framed = wire::encode_frame(footer);
  ONION_ENSURES(framed.size() == kFooterFrameBytes);
  writer_.append(framed);
  writer_.commit();
  fingerprint_ = to_hex(
      BytesView(footer.event_digest.data(), footer.event_digest.size()));
  finished_ = true;
}

const std::string& TraceWriter::fingerprint() const {
  ONION_EXPECTS(finished_);
  return fingerprint_;
}

TraceReader::TraceReader(std::string path) : path_(std::move(path)) {
  File f(path_);
  file_bytes_ = f.size();
  if (file_bytes_ < kFooterFrameBytes)
    bad("file too small for a trace footer (" +
        std::to_string(file_bytes_) + " bytes)");
  // Footer first: it is fixed-size, so truncation anywhere in the file
  // shifts real bytes out of the footer window and fails right here.
  footer_ = wire::decode_frame<TraceFooter>(
      read_frame(f, file_bytes_ - kFooterFrameBytes, file_bytes_));
  const Bytes header = read_frame(f, 0, file_bytes_ - kFooterFrameBytes);
  header_ = wire::decode_frame<TraceHeader>(header);
  chunks_begin_ = header.size();
}

std::uint64_t TraceReader::for_each_record(
    const std::function<void(std::uint8_t tag, BytesView body)>& fn) const {
  File f(path_);
  // Re-derive the region end from the live file, not the cached size:
  // the constructor's footer stays authoritative for the *counts*, and
  // any post-open resize surfaces as a frame/count mismatch below.
  const std::size_t limit = f.size() - kFooterFrameBytes;
  std::size_t pos = chunks_begin_;
  std::uint64_t chunks = 0;
  std::uint64_t events = 0;
  std::uint64_t snapshots = 0;
  while (pos < limit) {
    const Bytes payload = wire::unframe(kChunkMagic, read_frame(f, pos, limit));
    pos += kFrameOverhead + payload.size();
    ++chunks;
    ByteReader r(payload);
    try {
      while (!r.done()) {
        const std::uint8_t tag = r.raw(1)[0];
        if (tag == kEventTag) {
          ++events;
          fn(tag, r.raw(codec::fixed_size<CampaignEvent>()));
        } else if (tag == kSnapshotTag) {
          ++snapshots;
          fn(tag, r.raw(static_cast<std::size_t>(r.u64())));
        } else {
          bad("unknown record tag " + std::to_string(tag));
        }
      }
    } catch (const std::out_of_range& e) {
      bad(std::string("chunk payload: ") + e.what());
    }
  }
  if (chunks != footer_.chunk_count || events != footer_.event_count ||
      snapshots != footer_.snapshot_count)
    bad("record counts disagree with the footer (chunks " +
        std::to_string(chunks) + "/" + std::to_string(footer_.chunk_count) +
        ", events " + std::to_string(events) + "/" +
        std::to_string(footer_.event_count) + ", snapshots " +
        std::to_string(snapshots) + "/" +
        std::to_string(footer_.snapshot_count) + ")");
  return chunks;
}

void TraceReader::for_each_event(
    const std::function<void(const CampaignEvent&)>& fn) const {
  for_each_record([&](std::uint8_t tag, BytesView body) {
    if (tag == kEventTag) fn(codec::decode<CampaignEvent>(body));
  });
}

void TraceReader::for_each_snapshot(
    const std::function<void(const MetricsSnapshot&)>& fn) const {
  for_each_record([&](std::uint8_t tag, BytesView body) {
    if (tag == kSnapshotTag) fn(codec::decode<MetricsSnapshot>(body));
  });
}

std::string TraceReader::fingerprint() const {
  crypto::Sha256 hasher;
  for_each_record([&](std::uint8_t tag, BytesView body) {
    // An event's record body IS codec::encode(CampaignEvent), so hashing
    // it directly reproduces CampaignTrace::fingerprint() byte-for-byte;
    // decoding it first rejects what for_each_event would reject.
    if (tag != kEventTag) return;
    (void)codec::decode<CampaignEvent>(body);
    hasher.update(body);
  });
  const crypto::Sha256Digest digest = hasher.finalize();
  if (digest != footer_.event_digest)
    bad("event digest disagrees with the footer");
  return to_hex(BytesView(digest.data(), digest.size()));
}

}  // namespace onion::scenario::trace_io

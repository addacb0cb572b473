#include "scenario/wire.hpp"

#include <algorithm>
#include <string>

#include "crypto/sha256.hpp"

namespace onion::scenario::wire {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw WireError("wire: " + what);
}

}  // namespace

Bytes frame(std::uint64_t magic, BytesView payload) {
  Bytes out;
  out.reserve(kFrameHeaderBytes + payload.size() + kFrameDigestBytes);
  put_u64(out, magic);
  put_u64(out, kWireVersion);
  put_u64(out, payload.size());
  append(out, payload);
  const crypto::Sha256Digest digest = crypto::Sha256::hash(payload);
  append(out, BytesView(digest.data(), digest.size()));
  return out;
}

Bytes unframe(std::uint64_t magic, BytesView framed) {
  if (framed.size() < kFrameHeaderBytes + kFrameDigestBytes)
    bad("truncated frame: " + std::to_string(framed.size()) +
        " bytes, header + digest need " +
        std::to_string(kFrameHeaderBytes + kFrameDigestBytes));
  ByteReader r(framed);
  const std::uint64_t got_magic = r.u64();
  if (got_magic != magic)
    bad("bad magic " + to_hex(be64(got_magic)) + " (expected " +
        to_hex(be64(magic)) + ")");
  const std::uint64_t version = r.u64();
  if (version != kWireVersion)
    bad("unsupported wire version " + std::to_string(version) +
        " (this build speaks version " + std::to_string(kWireVersion) + ")");
  const std::uint64_t payload_len = r.u64();
  const std::uint64_t body =
      framed.size() - kFrameHeaderBytes - kFrameDigestBytes;
  if (payload_len != body)
    bad("frame length mismatch: header says " + std::to_string(payload_len) +
        " payload bytes, frame carries " + std::to_string(body));
  const BytesView payload = r.raw(static_cast<std::size_t>(payload_len));
  const BytesView claimed = r.raw(kFrameDigestBytes);
  const crypto::Sha256Digest actual = crypto::Sha256::hash(payload);
  if (!std::equal(claimed.begin(), claimed.end(), actual.begin()))
    bad("integrity digest mismatch: frame truncated or corrupted");
  return Bytes(payload.begin(), payload.end());
}

}  // namespace onion::scenario::wire

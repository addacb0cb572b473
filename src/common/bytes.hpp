// Byte-buffer helpers shared by every subsystem: hex and base32 codecs
// (base32 per RFC 4648, lowercase, unpadded — the alphabet Tor uses for
// .onion hostnames), concatenation, constant conversions.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace onion {

/// Owning byte buffer. A plain vector so the standard library does the work.
using Bytes = std::vector<std::uint8_t>;

/// Read-only view over bytes; the parameter type of choice for all APIs.
using BytesView = std::span<const std::uint8_t>;

/// Builds a buffer from a string's raw characters (no encoding applied).
Bytes to_bytes(std::string_view s);

/// Interprets a buffer as a string of raw characters.
std::string to_string(BytesView b);

/// Lowercase hex encoding ("deadbeef").
std::string to_hex(BytesView b);

/// Decodes lowercase/uppercase hex; throws std::invalid_argument on bad
/// input (odd length or non-hex character).
Bytes from_hex(std::string_view hex);

/// RFC 4648 base32, lowercase, no padding — the exact alphabet Tor uses to
/// render .onion hostnames from the 80-bit service identifier.
std::string base32_encode(BytesView b);

/// Inverse of base32_encode; accepts lowercase or uppercase, rejects
/// padding and out-of-alphabet characters with std::invalid_argument.
Bytes base32_decode(std::string_view s);

/// a ‖ b.
Bytes concat(BytesView a, BytesView b);

/// a ‖ b ‖ c.
Bytes concat(BytesView a, BytesView b, BytesView c);

/// Appends `src` to `dst`.
void append(Bytes& dst, BytesView src);

/// Big-endian encoding of a 64-bit value (8 bytes), as used in the
/// descriptor time-period and key-derivation inputs.
Bytes be64(std::uint64_t v);

/// Canonical-serialization helpers shared by every fingerprinted stream:
/// big-endian 64-bit words, doubles bit-cast, strings length-prefixed.
/// One definition, so the byte conventions cannot drift between modules;
/// serialized structs reach them through common/codec.hpp.
void put_u64(Bytes& out, std::uint64_t v);
void put_f64(Bytes& out, double v);
void put_string(Bytes& out, std::string_view s);

/// Reads a big-endian 64-bit value from the first 8 bytes of `b`.
/// Precondition: b.size() >= 8.
std::uint64_t read_be64(BytesView b);

/// Bounds-checked cursor over a canonical byte stream: the decoding
/// counterpart of put_u64/put_f64/put_string. Every read validates the
/// remaining length and throws std::out_of_range on underflow, so a
/// truncated buffer surfaces as an exception at the exact field, never
/// as an out-of-bounds access. common/codec.hpp wraps the throw in a
/// WireError naming the struct and field.
class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  std::uint64_t u64();
  double f64();  // bit-cast inverse of put_f64: round-trips every value
  /// Length-prefixed string (inverse of put_string).
  std::string str();
  /// The next `n` raw bytes.
  BytesView raw(std::size_t n);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return remaining() == 0; }

 private:
  BytesView data_;
  std::size_t pos_ = 0;
};

/// Byte-wise XOR of equal-length buffers; throws std::invalid_argument on
/// length mismatch.
Bytes xor_bytes(BytesView a, BytesView b);

}  // namespace onion

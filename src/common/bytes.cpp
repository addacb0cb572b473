#include "common/bytes.hpp"

#include <bit>
#include <stdexcept>

#include "common/check.hpp"

namespace onion {

namespace {
constexpr char kHexAlphabet[] = "0123456789abcdef";
// RFC 4648 base32 alphabet, lowercased as Tor does for .onion names.
constexpr char kBase32Alphabet[] = "abcdefghijklmnopqrstuvwxyz234567";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

int base32_value(char c) {
  if (c >= 'a' && c <= 'z') return c - 'a';
  if (c >= 'A' && c <= 'Z') return c - 'A';
  if (c >= '2' && c <= '7') return c - '2' + 26;
  return -1;
}
}  // namespace

Bytes to_bytes(std::string_view s) { return Bytes(s.begin(), s.end()); }

std::string to_string(BytesView b) { return std::string(b.begin(), b.end()); }

std::string to_hex(BytesView b) {
  std::string out;
  out.reserve(b.size() * 2);
  for (std::uint8_t byte : b) {
    out.push_back(kHexAlphabet[byte >> 4]);
    out.push_back(kHexAlphabet[byte & 0x0f]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0)
    throw std::invalid_argument("from_hex: odd-length input");
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_value(hex[i]);
    const int lo = hex_value(hex[i + 1]);
    if (hi < 0 || lo < 0)
      throw std::invalid_argument("from_hex: non-hex character");
    out.push_back(static_cast<std::uint8_t>(hi << 4 | lo));
  }
  return out;
}

std::string base32_encode(BytesView b) {
  std::string out;
  out.reserve((b.size() * 8 + 4) / 5);
  std::uint32_t buffer = 0;
  int bits = 0;
  for (std::uint8_t byte : b) {
    buffer = buffer << 8 | byte;
    bits += 8;
    while (bits >= 5) {
      bits -= 5;
      out.push_back(kBase32Alphabet[(buffer >> bits) & 0x1f]);
    }
  }
  if (bits > 0) out.push_back(kBase32Alphabet[(buffer << (5 - bits)) & 0x1f]);
  return out;
}

Bytes base32_decode(std::string_view s) {
  Bytes out;
  out.reserve(s.size() * 5 / 8);
  std::uint32_t buffer = 0;
  int bits = 0;
  for (char c : s) {
    const int v = base32_value(c);
    if (v < 0) throw std::invalid_argument("base32_decode: bad character");
    buffer = buffer << 5 | static_cast<std::uint32_t>(v);
    bits += 5;
    if (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<std::uint8_t>((buffer >> bits) & 0xff));
    }
  }
  return out;
}

Bytes concat(BytesView a, BytesView b) {
  Bytes out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

Bytes concat(BytesView a, BytesView b, BytesView c) {
  Bytes out;
  out.reserve(a.size() + b.size() + c.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  out.insert(out.end(), c.begin(), c.end());
  return out;
}

void append(Bytes& dst, BytesView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

Bytes be64(std::uint64_t v) {
  Bytes out(8);
  for (int i = 7; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v & 0xff);
    v >>= 8;
  }
  return out;
}

std::uint64_t read_be64(BytesView b) {
  ONION_EXPECTS(b.size() >= 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = v << 8 | b[static_cast<std::size_t>(i)];
  return v;
}

void put_u64(Bytes& out, std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8)
    out.push_back(static_cast<std::uint8_t>(v >> shift));
}

void put_f64(Bytes& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_string(Bytes& out, std::string_view s) {
  put_u64(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

std::uint64_t ByteReader::u64() {
  if (remaining() < 8)
    throw std::out_of_range("ByteReader: truncated u64 (" +
                            std::to_string(remaining()) + " bytes left)");
  const std::uint64_t v = read_be64(data_.subspan(pos_, 8));
  pos_ += 8;
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::string ByteReader::str() {
  const std::uint64_t len = u64();
  if (len > remaining())
    throw std::out_of_range("ByteReader: truncated string (length " +
                            std::to_string(len) + ", " +
                            std::to_string(remaining()) + " bytes left)");
  return to_string(raw(static_cast<std::size_t>(len)));
}

BytesView ByteReader::raw(std::size_t n) {
  if (n > remaining())
    throw std::out_of_range("ByteReader: truncated read (" +
                            std::to_string(n) + " wanted, " +
                            std::to_string(remaining()) + " bytes left)");
  const BytesView view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

Bytes xor_bytes(BytesView a, BytesView b) {
  if (a.size() != b.size())
    throw std::invalid_argument("xor_bytes: length mismatch");
  Bytes out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] ^ b[i];
  return out;
}

}  // namespace onion

// .onion addresses (paper Section III): the service identifier is the
// first 10 bytes (80 bits) of the SHA-1 digest of the service's RSA
// public key, and the hostname is its base32 encoding — exactly the v2
// hidden-service scheme the paper describes.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "crypto/simrsa.hpp"

namespace onion::tor {

/// 80-bit hidden-service identifier with value semantics; hashable and
/// ordered so it can key peer tables and HSDir stores.
class OnionAddress {
 public:
  using Identifier = std::array<std::uint8_t, 10>;

  OnionAddress() = default;

  /// Wraps a raw identifier (tests and synthetic-population helpers).
  explicit OnionAddress(const Identifier& id) : id_(id) {}

  /// Derives the address of a service key: first 10 bytes of
  /// SHA-1(serialized public key).
  static OnionAddress from_public_key(const crypto::RsaPublicKey& pub);

  /// Parses a 16-character base32 hostname (with or without the ".onion"
  /// suffix); throws std::invalid_argument on malformed input.
  static OnionAddress from_hostname(const std::string& hostname);

  /// The 80-bit identifier.
  const Identifier& identifier() const { return id_; }

  /// Identifier as an owning buffer (for hashing into descriptor IDs).
  Bytes identifier_bytes() const { return Bytes(id_.begin(), id_.end()); }

  /// "abcdefghij234567.onion".
  std::string hostname() const;

  auto operator<=>(const OnionAddress&) const = default;

  /// On the wire: the 10 identifier bytes, no prefix.
  static auto fields(auto& s, auto&& v) {
    return v("OnionAddress", codec::raw("identifier", s.id_));
  }

 private:
  Identifier id_{};
};

/// Hash functor so OnionAddress can key unordered containers.
struct OnionAddressHash {
  std::size_t operator()(const OnionAddress& a) const {
    std::size_t h = 1469598103934665603ULL;
    for (const std::uint8_t b : a.identifier()) {
      h ^= b;
      h *= 1099511628211ULL;
    }
    return h;
  }
};

}  // namespace onion::tor

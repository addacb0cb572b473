// Simulation-grade RSA.
//
// The paper's design needs real *functional* RSA: hidden-service identity
// keys (the .onion name is a hash of the public key), the botmaster's
// hard-coded public key, signed commands, and signed rental tokens. The
// measured results never depend on key length, so the simulator uses
// honest RSA arithmetic (Miller–Rabin keygen, modular exponentiation via
// unsigned __int128) over ~62-bit moduli. `nominal_bits` records the key
// size the modeled deployment would use (512 for ZeroAccess, 2048 for
// Zeus/OnionBot) purely as metadata.
//
// NOT CRYPTOGRAPHICALLY SECURE — 62-bit moduli are factorable instantly.
// This is a research simulator; the README's `src/crypto` row lists the
// simulated primitives.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/rng.hpp"

namespace onion::crypto {

/// RSA public key (n, e) plus the nominal key size it stands in for.
struct RsaPublicKey {
  std::uint64_t n = 0;
  std::uint64_t e = 0;
  int nominal_bits = 0;

  /// Deterministic serialization (hashed to derive .onion identifiers):
  /// three words.
  Bytes serialize() const { return codec::encode(*this); }
  static auto fields(auto& s, auto&& v) {
    return v("RsaPublicKey", codec::u64("n", s.n), codec::u64("e", s.e),
             codec::u64("nominal_bits", s.nominal_bits));
  }

  bool operator==(const RsaPublicKey&) const = default;
};

/// Full key pair. The private exponent stays inside the owning actor.
struct RsaKeyPair {
  RsaPublicKey pub;
  std::uint64_t d = 0;
};

/// 64-bit RSA signature (see header comment for the security caveat).
using RsaSignature = std::uint64_t;

/// Generates a key pair with two fresh ~31-bit primes. `nominal_bits` is
/// carried as metadata (e.g. 2048 for the botmaster key).
RsaKeyPair rsa_generate(Rng& rng, int nominal_bits);

/// Signs SHA-256(message) reduced into the key's modulus.
RsaSignature rsa_sign(const RsaKeyPair& key, BytesView message);

/// Verifies a signature produced by rsa_sign.
bool rsa_verify(const RsaPublicKey& pub, BytesView message, RsaSignature sig);

/// Raw RSA on a value < n (building block for the hybrid scheme).
std::uint64_t rsa_encrypt_value(const RsaPublicKey& pub, std::uint64_t value);
std::uint64_t rsa_decrypt_value(const RsaKeyPair& key, std::uint64_t value);

/// Hybrid public-key encryption: a random session value is RSA-encrypted
/// and the payload is stream-enciphered under its hash. Used by bots to
/// report their link key K_B to the C&C ({K_B}_{PK_CC}, paper §IV-D).
Bytes rsa_hybrid_encrypt(const RsaPublicKey& pub, BytesView plaintext,
                         Rng& rng);

/// Inverse of rsa_hybrid_encrypt; throws std::invalid_argument on
/// malformed ciphertext.
Bytes rsa_hybrid_decrypt(const RsaKeyPair& key, BytesView ciphertext);

/// Deterministic Miller–Rabin, exact for all 64-bit inputs (exposed for
/// tests and the proof-of-work defense).
bool is_prime_u64(std::uint64_t n);

/// (base^exp) mod mod, mod > 0.
std::uint64_t modpow_u64(std::uint64_t base, std::uint64_t exp,
                         std::uint64_t mod);

}  // namespace onion::crypto

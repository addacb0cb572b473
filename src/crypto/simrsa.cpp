#include "crypto/simrsa.hpp"

#include <stdexcept>

#include "common/check.hpp"
#include "crypto/rc4.hpp"
#include "crypto/sha256.hpp"

namespace onion::crypto {

namespace {

std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  // GCC/Clang extension; the guide-sanctioned escape hatch for 64x64
  // modular products without a bignum dependency.
  __extension__ using u128 = unsigned __int128;
  return static_cast<std::uint64_t>(static_cast<u128>(a) * b % m);
}

// Extended Euclid for the modular inverse of a modulo m (a, m coprime).
std::uint64_t modinv(std::uint64_t a, std::uint64_t m) {
  std::int64_t t = 0, new_t = 1;
  std::int64_t r = static_cast<std::int64_t>(m),
               new_r = static_cast<std::int64_t>(a);
  while (new_r != 0) {
    const std::int64_t q = r / new_r;
    t -= q * new_t;
    std::swap(t, new_t);
    r -= q * new_r;
    std::swap(r, new_r);
  }
  ONION_ENSURES(r == 1);  // caller guarantees coprimality
  if (t < 0) t += static_cast<std::int64_t>(m);
  return static_cast<std::uint64_t>(t);
}

std::uint64_t gcd_u64(std::uint64_t a, std::uint64_t b) {
  while (b != 0) {
    a %= b;
    std::swap(a, b);
  }
  return a;
}

// Random odd 31-bit prime (top bit set so products are ~62 bits).
std::uint64_t random_prime31(Rng& rng) {
  for (;;) {
    std::uint64_t candidate = rng.uniform_in(1ULL << 30, (1ULL << 31) - 1);
    candidate |= 1;  // odd
    if (is_prime_u64(candidate)) return candidate;
  }
}

}  // namespace

std::uint64_t modpow_u64(std::uint64_t base, std::uint64_t exp,
                         std::uint64_t mod) {
  ONION_EXPECTS(mod > 0);
  if (mod == 1) return 0;
  std::uint64_t result = 1;
  base %= mod;
  while (exp > 0) {
    if (exp & 1) result = mulmod(result, base, mod);
    base = mulmod(base, base, mod);
    exp >>= 1;
  }
  return result;
}

bool is_prime_u64(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                          23ULL, 29ULL, 31ULL, 37ULL}) {
    if (n % p == 0) return n == p;
  }
  // Deterministic Miller–Rabin for 64-bit integers with the standard base
  // set {2,3,5,7,11,13,17,19,23,29,31,37}.
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  for (std::uint64_t a : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                          23ULL, 29ULL, 31ULL, 37ULL}) {
    std::uint64_t x = modpow_u64(a, d, n);
    if (x == 1 || x == n - 1) continue;
    bool composite = true;
    for (int i = 0; i < r - 1; ++i) {
      x = mulmod(x, x, n);
      if (x == n - 1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

RsaKeyPair rsa_generate(Rng& rng, int nominal_bits) {
  ONION_EXPECTS(nominal_bits > 0);
  constexpr std::uint64_t kPublicExponent = 65537;
  for (;;) {
    const std::uint64_t p = random_prime31(rng);
    const std::uint64_t q = random_prime31(rng);
    if (p == q) continue;
    const std::uint64_t phi = (p - 1) * (q - 1);
    if (gcd_u64(kPublicExponent, phi) != 1) continue;
    RsaKeyPair key;
    key.pub.n = p * q;
    key.pub.e = kPublicExponent;
    key.pub.nominal_bits = nominal_bits;
    key.d = modinv(kPublicExponent, phi);
    return key;
  }
}

namespace {
// SHA-256(message) folded into the signing modulus.
std::uint64_t message_representative(BytesView message, std::uint64_t n) {
  const Sha256Digest digest = Sha256::hash(message);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = v << 8 | digest[static_cast<std::size_t>(i)];
  return v % n;
}
}  // namespace

RsaSignature rsa_sign(const RsaKeyPair& key, BytesView message) {
  return modpow_u64(message_representative(message, key.pub.n), key.d,
                    key.pub.n);
}

bool rsa_verify(const RsaPublicKey& pub, BytesView message,
                RsaSignature sig) {
  if (pub.n == 0) return false;
  return modpow_u64(sig, pub.e, pub.n) ==
         message_representative(message, pub.n);
}

std::uint64_t rsa_encrypt_value(const RsaPublicKey& pub, std::uint64_t value) {
  ONION_EXPECTS(value < pub.n);
  return modpow_u64(value, pub.e, pub.n);
}

std::uint64_t rsa_decrypt_value(const RsaKeyPair& key, std::uint64_t value) {
  ONION_EXPECTS(value < key.pub.n);
  return modpow_u64(value, key.d, key.pub.n);
}

Bytes rsa_hybrid_encrypt(const RsaPublicKey& pub, BytesView plaintext,
                         Rng& rng) {
  const std::uint64_t session = rng.uniform(pub.n);
  const std::uint64_t wrapped = rsa_encrypt_value(pub, session);
  const Sha256Digest stream_key = Sha256::hash(be64(session));
  Rc4 cipher(BytesView(stream_key.data(), stream_key.size()));
  Bytes out = be64(wrapped);
  append(out, cipher.process(plaintext));
  return out;
}

Bytes rsa_hybrid_decrypt(const RsaKeyPair& key, BytesView ciphertext) {
  if (ciphertext.size() < 8)
    throw std::invalid_argument("rsa_hybrid_decrypt: ciphertext too short");
  const std::uint64_t wrapped = read_be64(ciphertext);
  if (wrapped >= key.pub.n)
    throw std::invalid_argument("rsa_hybrid_decrypt: value out of range");
  const std::uint64_t session = rsa_decrypt_value(key, wrapped);
  const Sha256Digest stream_key = Sha256::hash(be64(session));
  Rc4 cipher(BytesView(stream_key.data(), stream_key.size()));
  return cipher.process(ciphertext.subspan(8));
}

}  // namespace onion::crypto

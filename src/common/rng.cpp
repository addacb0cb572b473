#include "common/rng.hpp"

#include <unordered_map>

namespace onion {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) {
  ONION_EXPECTS(bound > 0);
  // Rejection sampling over the largest multiple of `bound` below 2^64.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

std::uint64_t Rng::uniform_in(std::uint64_t lo, std::uint64_t hi) {
  ONION_EXPECTS(lo <= hi);
  const std::uint64_t span = hi - lo;
  if (span == ~0ULL) return next_u64();
  return lo + uniform(span + 1);
}

double Rng::uniform_real() {
  // 53 high-quality bits into [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform_real() < p;
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  ONION_EXPECTS(k <= n);
  // Slot x of the virtual array holds displaced[x] if present, else x.
  // Lookups only: the map's iteration order never matters.
  std::unordered_map<std::size_t, std::size_t> displaced;
  displaced.reserve(k);
  const auto at = [&displaced](std::size_t x) {
    const auto it = displaced.find(x);
    return it == displaced.end() ? x : it->second;
  };
  std::vector<std::size_t> out(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(uniform(n - i));
    // Slot i is never read again, so the swap only writes slot j.
    const std::size_t head = at(i);
    out[i] = at(j);
    displaced[j] = head;
  }
  return out;
}

Rng Rng::split() { return Rng(next_u64() ^ 0x5eedb0057ULL); }

}  // namespace onion

// Deterministic random number generation. Every stochastic component in
// the simulator draws from an explicitly seeded Rng so that experiments,
// tests, and benchmarks are reproducible bit-for-bit.
//
// The engine is xoshiro256** (Blackman & Vigna) — tiny state, excellent
// statistical quality, and independent of the standard library's
// unspecified distribution implementations (std::uniform_int_distribution
// is not portable across standard libraries; our rejection sampling is).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace onion {

/// Deterministic xoshiro256** generator with convenience sampling helpers.
/// Satisfies UniformRandomBitGenerator so it also plugs into <algorithm>.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds via splitmix64 expansion of `seed`, per the xoshiro authors'
  /// recommendation; every seed (including 0) yields a good state.
  explicit Rng(std::uint64_t seed = 0xc0ffee1234abcdULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64 random bits.
  std::uint64_t operator()() { return next_u64(); }
  std::uint64_t next_u64();

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  /// Uses rejection sampling: exactly uniform, portable across platforms.
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform integer in [lo, hi]. Precondition: lo <= hi.
  std::uint64_t uniform_in(std::uint64_t lo, std::uint64_t hi);

  /// Uniform real in [0, 1).
  double uniform_real();

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Uniformly chosen element of a non-empty vector.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    ONION_EXPECTS(!v.empty());
    return v[static_cast<std::size_t>(uniform(v.size()))];
  }

  /// Fisher–Yates shuffle (deterministic given the seed).
  template <typename T>
  void shuffle(std::vector<T>& v) {
    if (v.size() < 2) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform(i + 1));
      using std::swap;
      swap(v[i], v[j]);
    }
  }

  /// k distinct indices in [0, n), drawn by a sparse partial Fisher–Yates
  /// over the virtual array 0..n−1: step i swaps slot i with slot
  /// i + uniform(n − i), and only the O(k) displaced slots are stored.
  /// O(k) time and memory whatever n is. Precondition: k <= n.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  /// k distinct elements sampled without replacement (order randomized).
  /// O(k) time and memory: v is never copied. Same draws, same elements
  /// in the same order as a partial Fisher–Yates over a copy of v.
  /// Precondition: k <= v.size().
  template <typename T>
  std::vector<T> sample(const std::vector<T>& v, std::size_t k) {
    std::vector<T> out;
    out.reserve(k);
    for (const std::size_t i : sample_indices(v.size(), k))
      out.push_back(v[i]);
    return out;
  }

  /// Derives an independent child generator; used to give each simulation
  /// actor its own stream so event-order changes do not perturb others.
  Rng split();

 private:
  std::uint64_t s_[4];
};

}  // namespace onion

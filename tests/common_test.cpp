// Unit tests for the common substrate: byte codecs, deterministic RNG,
// contract macros, clock helpers, ByteReader, atomic file I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/check.hpp"
#include "common/clock.hpp"
#include "common/fileio.hpp"
#include "common/order_stat.hpp"
#include "common/rng.hpp"

namespace onion {
namespace {

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(to_hex(data), "0001abff7f");
  EXPECT_EQ(from_hex("0001abff7f"), data);
  EXPECT_EQ(from_hex("0001ABFF7F"), data);
}

TEST(Bytes, HexEmpty) {
  EXPECT_EQ(to_hex({}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Bytes, HexRejectsOddLength) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
}

TEST(Bytes, HexRejectsNonHex) {
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Bytes, Base32KnownVectors) {
  // RFC 4648 vectors, lowercased and unpadded (Tor style).
  EXPECT_EQ(base32_encode(to_bytes("")), "");
  EXPECT_EQ(base32_encode(to_bytes("f")), "my");
  EXPECT_EQ(base32_encode(to_bytes("fo")), "mzxq");
  EXPECT_EQ(base32_encode(to_bytes("foo")), "mzxw6");
  EXPECT_EQ(base32_encode(to_bytes("foob")), "mzxw6yq");
  EXPECT_EQ(base32_encode(to_bytes("fooba")), "mzxw6ytb");
  EXPECT_EQ(base32_encode(to_bytes("foobar")), "mzxw6ytboi");
}

TEST(Bytes, Base32RoundTripAllLengths) {
  Rng rng(7);
  for (std::size_t len = 0; len <= 64; ++len) {
    Bytes data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
    const std::string encoded = base32_encode(data);
    const Bytes decoded = base32_decode(encoded);
    // Decoding drops sub-byte padding bits; the prefix must match.
    ASSERT_GE(decoded.size(), data.size());
    EXPECT_TRUE(std::equal(data.begin(), data.end(), decoded.begin()));
  }
}

TEST(Bytes, Base32TenByteIdentifierIsExact) {
  // .onion identifiers are exactly 10 bytes = 16 base32 chars, no pad.
  const Bytes id = from_hex("0123456789abcdef0011");
  const std::string s = base32_encode(id);
  EXPECT_EQ(s.size(), 16u);
  EXPECT_EQ(base32_decode(s), id);
}

TEST(Bytes, Base32RejectsBadCharacters) {
  EXPECT_THROW(base32_decode("01"), std::invalid_argument);  // 0,1 invalid
  EXPECT_THROW(base32_decode("a!"), std::invalid_argument);
}

TEST(Bytes, ConcatAndAppend) {
  const Bytes a = {1, 2}, b = {3}, c = {4, 5};
  EXPECT_EQ(concat(a, b), (Bytes{1, 2, 3}));
  EXPECT_EQ(concat(a, b, c), (Bytes{1, 2, 3, 4, 5}));
  Bytes d = a;
  append(d, b);
  EXPECT_EQ(d, (Bytes{1, 2, 3}));
}

TEST(Bytes, Be64RoundTrip) {
  for (const std::uint64_t v :
       {0ULL, 1ULL, 0xffULL, 0x0123456789abcdefULL, ~0ULL}) {
    EXPECT_EQ(read_be64(be64(v)), v);
  }
  EXPECT_EQ(be64(0x0102030405060708ULL),
            (Bytes{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(Bytes, XorBytes) {
  EXPECT_EQ(xor_bytes(Bytes{0xff, 0x00}, Bytes{0x0f, 0xf0}),
            (Bytes{0xf0, 0xf0}));
  EXPECT_THROW(xor_bytes(Bytes{1}, Bytes{1, 2}), std::invalid_argument);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformStaysInBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform(7), 7u);
}

TEST(Rng, UniformCoversRange) {
  Rng rng(4);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformInInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_in(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInFullRangeDrawsRawBits) {
  // Edge case: uniform_in(0, UINT64_MAX) has span + 1 == 0, so the usual
  // `lo + uniform(span + 1)` path would hit uniform's bound > 0 contract.
  // The implementation must fall back to raw 64-bit draws — and those draws
  // must still cover the whole range, not a truncated one.
  Rng rng(7);
  bool saw_top_half = false, saw_bottom_half = false;
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t v = rng.uniform_in(0, UINT64_MAX);
    saw_top_half |= v >= (1ULL << 63);
    saw_bottom_half |= v < (1ULL << 63);
  }
  EXPECT_TRUE(saw_top_half);
  EXPECT_TRUE(saw_bottom_half);
}

TEST(Rng, UniformInDegenerateRangeIsConstant) {
  Rng rng(8);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(rng.uniform_in(42, 42), 42u);
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(rng.uniform_in(UINT64_MAX, UINT64_MAX), UINT64_MAX);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform_real();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliApproximatesProbability) {
  Rng rng(8);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.25)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, SampleDistinctElements) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const auto s = rng.sample(v, 4);
  EXPECT_EQ(s.size(), 4u);
  std::set<int> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 4u);
  for (int x : s) EXPECT_TRUE(std::count(v.begin(), v.end(), x) == 1);
}

TEST(Rng, SampleWholeVector) {
  Rng rng(10);
  std::vector<int> v{1, 2, 3};
  auto s = rng.sample(v, 3);
  std::sort(s.begin(), s.end());
  EXPECT_EQ(s, v);
}

// The copying sampler Rng::sample replaced, kept as the oracle for the
// sparse one: a partial Fisher–Yates over a full copy of v.
template <typename T>
std::vector<T> reference_sample(Rng& rng, const std::vector<T>& v,
                                std::size_t k) {
  ONION_EXPECTS(k <= v.size());
  std::vector<T> pool = v;
  // Partial Fisher–Yates: the first k slots become the sample.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform(pool.size() - i));
    using std::swap;
    swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

// Both samplers from one seed: same elements, same order, and the
// generator left in the same state.
void expect_sample_matches_reference(std::uint64_t seed, std::size_t n,
                                     std::size_t k) {
  SCOPED_TRACE(testing::Message() << "seed " << seed << " n " << n
                                  << " k " << k);
  // Values distinct from their indices, so a wrong index map shows.
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = 3 * i + 1;
  Rng fast(seed), slow(seed);
  ASSERT_EQ(fast.sample(v, k), reference_sample(slow, v, k));
  EXPECT_EQ(fast.uniform(1000003), slow.uniform(1000003));

  std::vector<std::size_t> iota(n);
  std::iota(iota.begin(), iota.end(), std::size_t{0});
  Rng fast_idx(seed), slow_idx(seed);
  ASSERT_EQ(fast_idx.sample_indices(n, k), reference_sample(slow_idx, iota, k));
  EXPECT_EQ(fast_idx.next_u64(), slow_idx.next_u64());
}

TEST(Rng, SampleMatchesCopyingReferenceOnEdgeCases) {
  expect_sample_matches_reference(1, 0, 0);
  expect_sample_matches_reference(2, 1, 0);
  expect_sample_matches_reference(3, 1, 1);
  expect_sample_matches_reference(4, 2, 1);
  expect_sample_matches_reference(5, 2, 2);
  expect_sample_matches_reference(6, 17, 0);
  expect_sample_matches_reference(7, 17, 17);
  expect_sample_matches_reference(8, std::size_t{1} << 20, 10);
}

TEST(Rng, SampleMatchesCopyingReferenceOnRandomSizes) {
  Rng sizes(0x5a3d1e);
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    const std::size_t n = static_cast<std::size_t>(sizes.uniform(300));
    const std::size_t k = static_cast<std::size_t>(sizes.uniform_in(0, n));
    expect_sample_matches_reference(seed, n, k);
  }
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(w, v);
}

TEST(Rng, PickReturnsElement) {
  Rng rng(12);
  const std::vector<int> v{5, 6, 7};
  for (int i = 0; i < 50; ++i) {
    const int x = rng.pick(v);
    EXPECT_TRUE(x >= 5 && x <= 7);
  }
}

TEST(Rng, SplitYieldsIndependentStream) {
  Rng a(13);
  Rng child = a.split();
  // The child stream should not replay the parent's outputs.
  Rng b(13);
  b.next_u64();  // advance past the split draw
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (child.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Check, ExpectsThrowsContractViolation) {
  EXPECT_THROW(ONION_EXPECTS(false), ContractViolation);
  EXPECT_NO_THROW(ONION_EXPECTS(true));
}

TEST(Check, MessageNamesExpression) {
  try {
    ONION_EXPECTS(1 == 2);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Check, FormattedMessageCarriesTheIds) {
  const int u = 17;
  const int v = 42;
  try {
    ONION_EXPECTS_MSG(u == v, "u=" << u << " v=" << v);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("u == v"), std::string::npos);
    EXPECT_NE(what.find("u=17 v=42"), std::string::npos);
  }
}

TEST(Check, FormattedStreamNotEvaluatedOnSuccess) {
  int evaluations = 0;
  const auto count = [&evaluations] { return ++evaluations; };
  ONION_EXPECTS_MSG(true, "count=" << count());
  ONION_ENSURES_MSG(true, "count=" << count());
  EXPECT_EQ(evaluations, 0);
}

TEST(Check, EnsuresMsgThrowsPostcondition) {
  try {
    ONION_ENSURES_MSG(false, "bucket " << 3);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("postcondition"), std::string::npos);
    EXPECT_NE(what.find("bucket 3"), std::string::npos);
  }
}

TEST(Clock, Conversions) {
  EXPECT_EQ(kSecond, 1000u);
  EXPECT_EQ(kHour, 3'600'000u);
  EXPECT_EQ(kDay, 24 * kHour);
  EXPECT_EQ(to_seconds(2 * kHour), 7200u);
}

TEST(OrderStat, SetClearCountSelect) {
  OrderStatSet set(10);
  EXPECT_EQ(set.count(), 0u);
  set.set(3);
  set.set(7);
  set.set(1);
  EXPECT_EQ(set.count(), 3u);
  EXPECT_TRUE(set.test(3));
  EXPECT_FALSE(set.test(0));
  EXPECT_EQ(set.select(0), 1u);
  EXPECT_EQ(set.select(1), 3u);
  EXPECT_EQ(set.select(2), 7u);
  set.clear(3);
  EXPECT_EQ(set.count(), 2u);
  EXPECT_EQ(set.select(1), 7u);
  set.set(7);  // idempotent re-set
  EXPECT_EQ(set.count(), 2u);
  set.clear(0);  // idempotent clear of an absent slot
  EXPECT_EQ(set.count(), 2u);
  EXPECT_THROW(set.select(2), ContractViolation);
}

TEST(OrderStat, RankMatchesPrefixCounts) {
  OrderStatSet set(16);
  for (const std::size_t i : {2u, 3u, 5u, 7u, 11u, 13u}) set.set(i);
  EXPECT_EQ(set.rank(0), 0u);
  EXPECT_EQ(set.rank(3), 1u);   // {2}
  EXPECT_EQ(set.rank(8), 4u);   // {2,3,5,7}
  EXPECT_EQ(set.rank(16), 6u);
  EXPECT_EQ(set.rank(99), 6u);  // clamped past capacity
}

TEST(OrderStat, GrowthMidLifeKeepsPrefixSumsCorrect) {
  // ensure_size on a warmed tree must seed new Fenwick nodes from the
  // existing prefix sums (their spans reach back into old indices).
  OrderStatSet set(5);
  for (std::size_t i = 0; i < 5; ++i) set.set(i);
  set.ensure_size(13);
  EXPECT_EQ(set.count(), 5u);
  set.set(12);
  EXPECT_EQ(set.select(4), 4u);
  EXPECT_EQ(set.select(5), 12u);
  EXPECT_EQ(set.rank(13), 6u);
}

TEST(OrderStat, MatchesSortedVectorUnderRandomChurn) {
  Rng rng(4242);
  OrderStatSet set(0);
  std::set<std::size_t> reference;
  for (int op = 0; op < 2000; ++op) {
    set.ensure_size((static_cast<std::size_t>(op) / 10 + 1) * 7);
    const std::size_t i = rng.uniform(set.capacity());
    if (rng.uniform(2) == 0) {
      set.set(i);
      reference.insert(i);
    } else {
      set.clear(i);
      reference.erase(i);
    }
    ASSERT_EQ(set.count(), reference.size());
    if (!reference.empty()) {
      const std::size_t k = rng.uniform(reference.size());
      ASSERT_EQ(set.select(k), *std::next(reference.begin(),
                                          static_cast<std::ptrdiff_t>(k)));
    }
    // Rank right after each mid-run growth too: the linear Fenwick
    // growth must leave every prefix sum exact.
    const std::size_t r = rng.uniform(set.capacity() + 1);
    ASSERT_EQ(set.rank(r), static_cast<std::size_t>(std::distance(
                               reference.begin(), reference.lower_bound(r))))
        << "op " << op << " r=" << r;
  }
}

TEST(OrderStat, AssignBuildsTheSameSetAsSetCalls) {
  std::vector<std::uint8_t> bits(37, 0);
  OrderStatSet one_by_one(bits.size());
  for (const std::size_t i : {0u, 4u, 5u, 16u, 31u, 32u, 36u}) {
    bits[i] = 1;
    one_by_one.set(i);
  }
  OrderStatSet bulk;
  bulk.assign(bits);
  ASSERT_EQ(bulk.count(), one_by_one.count());
  for (std::size_t k = 0; k < bulk.count(); ++k)
    EXPECT_EQ(bulk.select(k), one_by_one.select(k));
  for (std::size_t i = 0; i <= bits.size(); ++i)
    EXPECT_EQ(bulk.rank(i), one_by_one.rank(i));
  bulk.ensure_size(100);  // growth after a bulk build
  bulk.set(99);
  EXPECT_EQ(bulk.select(bulk.count() - 1), 99u);
}

TEST(Fenwick, FindResolvesWeightedPositions) {
  // Weights 2,0,3,1: positions 0-1 -> element 0, 2-4 -> element 2, 5 -> 3.
  FenwickTree tree;
  tree.assign(std::vector<std::size_t>{2, 0, 3, 1});
  const std::pair<std::size_t, std::size_t> expect[] = {
      {0, 0}, {0, 1}, {2, 0}, {2, 1}, {2, 2}, {3, 0}};
  for (std::size_t k = 0; k < 6; ++k) {
    std::size_t offset = 99;
    EXPECT_EQ(tree.find(k, &offset), expect[k].first) << "k=" << k;
    EXPECT_EQ(offset, expect[k].second) << "k=" << k;
  }
  tree.add(1, +2);  // element 1 now owns positions 2-3
  tree.add(2, -1);
  EXPECT_EQ(tree.prefix(4), 7u);
  EXPECT_EQ(tree.find(3), 1u);
  EXPECT_EQ(tree.find(4), 2u);
  EXPECT_THROW(tree.find(7), ContractViolation);
}

TEST(ByteReader, RoundTripsThePutHelpers) {
  Bytes buf;
  put_u64(buf, 0xdeadbeefcafef00dull);
  put_f64(buf, -2.5);
  put_string(buf, "onion");
  put_string(buf, "");
  ByteReader r(buf);
  EXPECT_EQ(r.u64(), 0xdeadbeefcafef00dull);
  EXPECT_EQ(r.f64(), -2.5);
  EXPECT_EQ(r.str(), "onion");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReader, RawViewsWithoutCopying) {
  const Bytes buf = {1, 2, 3, 4, 5};
  ByteReader r(buf);
  const BytesView head = r.raw(2);
  EXPECT_EQ(head.data(), buf.data());
  EXPECT_EQ(head.size(), 2u);
  EXPECT_EQ(r.remaining(), 3u);
}

TEST(ByteReader, EveryTruncatedReadThrows) {
  const Bytes seven(7, 0xab);
  ByteReader u(seven);
  EXPECT_THROW(u.u64(), std::out_of_range);
  ByteReader f(seven);
  EXPECT_THROW(f.f64(), std::out_of_range);
  ByteReader v(seven);
  EXPECT_THROW(v.raw(8), std::out_of_range);
  // A string whose length prefix promises more bytes than remain.
  Bytes lying;
  put_u64(lying, 100);
  ByteReader s(lying);
  EXPECT_THROW(s.str(), std::out_of_range);
}

TEST(FileIo, AtomicWriteThenReadRoundTrips) {
  const std::string path =
      ::testing::TempDir() + "fileio_roundtrip.bin";
  const Bytes data = {0x00, 0xff, 0x10, 0x20};
  write_file_atomic(path, data);
  EXPECT_EQ(read_file_bytes(path), data);
  // Overwrite goes through the same temp+rename publication.
  const Bytes replacement = {0x01};
  write_file_atomic(path, replacement);
  EXPECT_EQ(read_file_bytes(path), replacement);
}

TEST(FileIo, EmptyFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "fileio_empty.bin";
  write_file_atomic(path, Bytes{});
  EXPECT_TRUE(read_file_bytes(path).empty());
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW(
      read_file_bytes(::testing::TempDir() + "fileio_nonexistent.bin"),
      std::runtime_error);
}

TEST(FileIo, UnwritableDirectoryThrows) {
  EXPECT_THROW(write_file_atomic("/nonexistent-dir/out.bin", Bytes{1}),
               std::runtime_error);
}

}  // namespace
}  // namespace onion

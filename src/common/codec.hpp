// One field list per serialized struct, and every codec derived from it.
//
// Each struct that travels as canonical bytes declares its layout once,
// next to its definition, as a static fields() that hands a visitor the
// struct's name and one encoding per field, in wire order:
//
//   struct FailedCell {
//     std::uint64_t cell_index = 0;
//     std::string label;
//     static auto fields(auto& s, auto&& v) {
//       return v("FailedCell", codec::u64("cell_index", s.cell_index),
//                codec::str("label", s.label));
//     }
//   };
//
// encode(), decode() and encoded_size() below are the only walkers of
// those lists, so writer and reader cannot disagree on order or
// encoding; fingerprint() hashes a sequence of encodings, and
// scenario/wire.hpp frames one. Integers, lengths and counts are
// big-endian; where a width can vary it is a template argument (default
// 8 bytes), so the campaign formats use words throughout and the bot
// protocol (core/messages.hpp) its narrow widths. The encodings:
//
//   u64, u16, u8  an integer of 8, 2 or 1 bytes (u64 takes any integer;
//                 a signed one travels as two's complement)
//   f64           double, bit-cast to a word
//   str<k>        string or byte string after a k-byte length
//   boolean<k>    k bytes, 1 or 0 (any non-zero value decodes as true)
//   enum_u64      an enum as a word; enum_u8 as one byte. Decoding
//                 rejects a value past the enumerator named in the field
//                 line
//   u32s          count-prefixed big-endian 32-bit entries
//   enum_u8s<L,k> a k-byte count, then one-byte enumerators up to L
//   raw           a fixed-size byte array (a digest), no prefix
//   nested<k>     another fields() struct: inline (k = 0), or after a
//                 k-byte length its decoding must consume exactly
//   list<k>       a k-byte count, then words or inline fields() structs
//   framed        count-prefixed fields() structs, each length-prefixed
//   optional      a one-byte presence flag (non-zero: present), then
//                 the fields() struct inline when present
//   trailing      a list omitted entirely when empty. Only as the last
//                 field of a struct whose encoding is length-delimited:
//                 decoding reads it iff bytes remain
//
// Encoding a length or count that does not fit its width is a caller
// bug (ONION_EXPECTS), never silently truncated.
//
// Decoding checks every read against the remaining bytes, and rejects a
// count larger than the remaining bytes could hold before allocating for
// it, so a forged count fails like any other malformed input. Every
// decoding failure is a WireError naming the struct and field path
// ("TraceHeader.spec: ScenarioSpec.attacks: AttackPhase.kind: ...").
//
// Each walker static_asserts that fields() lists as many fields as the
// struct has members: a member missing from the list does not compile.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/check.hpp"
#include "crypto/sha256.hpp"

namespace onion::codec {

/// Thrown on any malformed encoding (truncation, a count or length past
/// the end, an unknown enumerator, trailing bytes). scenario::wire and
/// scenario::trace_io report their framing defects with it too.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

template <typename S>
std::size_t encoded_size(const S& s);
template <typename S>
void encode_into(Bytes& out, const S& s);
template <typename S>
void decode_into(ByteReader& r, S& s);
template <typename S>
constexpr std::size_t min_size();

namespace detail {

/// Converts to any member type, so S{AnyField{}...} compiles for up to
/// as many initializers as S has members. Only used unevaluated.
struct AnyField {
  template <typename T>
  operator T() const;
};

template <typename S, typename... A>
constexpr std::size_t member_count() {
  if constexpr (requires { S{A{}..., AnyField{}}; })
    return member_count<S, A..., AnyField>();
  else
    return sizeof...(A);
}

/// Compile-time visitors: they read the field list's types only.
struct CountFields {
  template <typename... F>
  auto operator()(const char*, const F&...) const {
    return std::integral_constant<std::size_t, sizeof...(F)>{};
  }
};
struct MinSize {
  template <typename... F>
  auto operator()(const char*, const F&...) const {
    return std::integral_constant<std::size_t,
                                  (std::size_t{0} + ... + F::kMinSize)>{};
  }
};
struct IsFixed {
  template <typename... F>
  auto operator()(const char*, const F&...) const {
    return std::bool_constant<(true && ... && F::kFixed)>{};
  }
};

template <typename S, typename V>
using Layout = decltype(S::fields(std::declval<S&>(), V{}));

template <typename F>
constexpr bool kIsTrailing = requires { F::kTrailing; };

template <typename... F>
constexpr bool trailing_only_last() {
  constexpr bool trailing[] = {kIsTrailing<F>...};
  for (std::size_t i = 0; i + 1 < sizeof...(F); ++i)
    if (trailing[i]) return false;
  return true;
}

/// The runtime walkers.
struct Sizer {
  template <typename... F>
  std::size_t operator()(const char*, const F&... f) const {
    return (std::size_t{0} + ... + f.size());
  }
};
struct Encoder {
  Bytes& out;
  template <typename... F>
  void operator()(const char*, const F&... f) const {
    (f.put(out), ...);
  }
};
struct Decoder {
  ByteReader& r;
  template <typename... F>
  void operator()(const char* owner, const F&... f) const {
    static_assert(trailing_only_last<F...>(),
                  "a trailing block must be the last field");
    (read(owner, f), ...);
  }
  template <typename F>
  void read(const char* owner, const F& f) const {
    try {
      f.get(r);
    } catch (const std::out_of_range& e) {
      fail(owner, f.name, e.what());
    } catch (const WireError& e) {
      fail(owner, f.name, e.what());
    }
  }
  [[noreturn]] static void fail(const char* owner, const char* field,
                                const char* what) {
    throw WireError(std::string(owner) + "." + field + ": " + what);
  }
};

/// Walks `s` (const to encode, mutable to decode) with `v`, after
/// checking the field list covers every member.
template <typename S, typename V>
decltype(auto) visit(S& s, V&& v) {
  using T = std::remove_const_t<S>;
  static_assert(Layout<T, CountFields>::value == member_count<T>(),
                "fields() must list every member of the struct once");
  return T::fields(s, std::forward<V>(v));
}

/// Throws unless `count` elements of at least `min_element` bytes each
/// fit in what `r` has left.
inline void check_count(std::uint64_t count, const ByteReader& r,
                        std::size_t min_element) {
  if (count > r.remaining() / min_element)
    throw WireError("count " + std::to_string(count) + " exceeds the " +
                    std::to_string(r.remaining()) + " bytes left");
}

/// The low kWidth bytes of `v`, big-endian.
template <std::size_t kWidth>
void put_uint(Bytes& out, std::uint64_t v) {
  static_assert(kWidth == 1 || kWidth == 2 || kWidth == 4 || kWidth == 8);
  if constexpr (kWidth == 8)
    put_u64(out, v);
  else
    for (std::size_t i = kWidth; i-- > 0;)
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
template <std::size_t kWidth>
std::uint64_t get_uint(ByteReader& r) {
  if constexpr (kWidth == 8) {
    return r.u64();
  } else {
    std::uint64_t v = 0;
    for (const std::uint8_t b : r.raw(kWidth)) v = v << 8 | b;
    return v;
  }
}

/// A length or count prefix of kWidth bytes. Encoding a value that does
/// not fit is a caller bug, not a wire defect.
template <std::size_t kWidth>
void put_count(Bytes& out, std::size_t n) {
  if constexpr (kWidth < 8) ONION_EXPECTS(n >> (8 * kWidth) == 0);
  put_uint<kWidth>(out, n);
}

template <typename T>
using Value = std::remove_const_t<T>;

/// The element type of container T, const when T is.
template <typename T>
using ElementOf =
    std::remove_reference_t<decltype(*std::declval<T&>().begin())>;

// --- the encodings: each holds the field's name and a reference to it --

/// An integer of kWidth bytes: unsigned and signed integers (as two's
/// complement) and bools (decoding as value != 0); at width 8 doubles
/// too, bit-cast.
template <std::size_t kWidth, typename T>
struct Word {
  static constexpr std::size_t kMinSize = kWidth;
  static constexpr bool kFixed = true;
  const char* name;
  T& value;
  std::size_t size() const { return kWidth; }
  void put(Bytes& out) const {
    if constexpr (std::is_floating_point_v<Value<T>>)
      put_f64(out, value);
    else
      put_uint<kWidth>(out, static_cast<std::uint64_t>(value));
  }
  void get(ByteReader& r) const {
    if constexpr (std::is_floating_point_v<Value<T>>)
      value = r.f64();
    else
      value = static_cast<Value<T>>(get_uint<kWidth>(r));
  }
};

/// A string or byte string after a kLength-byte length.
template <std::size_t kLength, typename T>
struct Str {
  static constexpr std::size_t kMinSize = kLength;
  static constexpr bool kFixed = false;
  const char* name;
  T& value;
  std::size_t size() const { return kLength + value.size(); }
  void put(Bytes& out) const {
    put_count<kLength>(out, value.size());
    out.insert(out.end(), value.begin(), value.end());
  }
  void get(ByteReader& r) const {
    const BytesView b = r.raw(static_cast<std::size_t>(get_uint<kLength>(r)));
    value.assign(b.begin(), b.end());
  }
};

template <std::size_t kWidth, auto kLast, typename T>
struct Enum {
  static_assert(std::is_same_v<Value<T>, decltype(kLast)>);
  static constexpr std::size_t kMinSize = kWidth;
  static constexpr bool kFixed = true;
  const char* name;
  T& value;
  std::size_t size() const { return kWidth; }
  void put(Bytes& out) const {
    put_uint<kWidth>(out, static_cast<std::uint64_t>(value));
  }
  void get(ByteReader& r) const {
    const std::uint64_t v = get_uint<kWidth>(r);
    if (v > static_cast<std::uint64_t>(kLast))
      throw WireError("unknown enumerator value " + std::to_string(v) +
                      " (the last is " +
                      std::to_string(static_cast<std::uint64_t>(kLast)) +
                      ")");
    value = static_cast<Value<T>>(v);
  }
};

template <typename T>
struct Raw {
  static constexpr std::size_t kMinSize = std::tuple_size_v<Value<T>>;
  static constexpr bool kFixed = true;
  const char* name;
  T& value;
  std::size_t size() const { return kMinSize; }
  void put(Bytes& out) const {
    out.insert(out.end(), value.begin(), value.end());
  }
  void get(ByteReader& r) const {
    const BytesView b = r.raw(kMinSize);
    std::copy(b.begin(), b.end(), value.begin());
  }
};

/// Another fields() struct: inline, or (kLength > 0) after a
/// kLength-byte length that its decoding must consume exactly.
template <std::size_t kLength, typename T>
struct Nested {
  static constexpr std::size_t kMinSize = kLength + min_size<Value<T>>();
  static constexpr bool kFixed = Layout<Value<T>, IsFixed>::value;
  const char* name;
  T& value;
  std::size_t size() const { return kLength + encoded_size(value); }
  void put(Bytes& out) const {
    if constexpr (kLength > 0) put_count<kLength>(out, encoded_size(value));
    encode_into(out, value);
  }
  void get(ByteReader& r) const {
    if constexpr (kLength == 0) {
      decode_into(r, value);
    } else {
      ByteReader inner(r.raw(static_cast<std::size_t>(get_uint<kLength>(r))));
      decode_into(inner, value);
      if (!inner.done())
        throw WireError(std::to_string(inner.remaining()) +
                        " trailing bytes");
    }
  }
};

/// A list element with no encoding of its own: an integer travels as a
/// word, a struct through its fields().
template <typename E>
using Element = std::conditional_t<std::is_integral_v<Value<E>>, Word<8, E>,
                                   Nested<0, E>>;

/// A kCount-byte count, then each element as the encoding F.
template <std::size_t kCount, typename T, typename F>
struct List {
  static_assert(F::kMinSize > 0);
  static constexpr std::size_t kMinSize = kCount;
  static constexpr bool kFixed = false;
  const char* name;
  T& value;
  std::size_t size() const {
    if constexpr (F::kFixed) {
      return kCount + F::kMinSize * value.size();
    } else {
      std::size_t n = kCount;
      for (auto& e : value) n += F{name, e}.size();
      return n;
    }
  }
  void put(Bytes& out) const {
    put_count<kCount>(out, value.size());
    for (auto& e : value) F{name, e}.put(out);
  }
  void get(ByteReader& r) const {
    const std::uint64_t count = get_uint<kCount>(r);
    check_count(count, r, F::kMinSize);
    value.clear();
    value.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i)
      F{name, value.emplace_back()}.get(r);
  }
};

/// list() at its default width: what a trailing block holds.
template <typename T>
using DefaultList = List<8, T, Element<ElementOf<T>>>;

template <typename T>
struct Trailing {
  static constexpr bool kTrailing = true;
  static constexpr std::size_t kMinSize = 0;
  static constexpr bool kFixed = false;
  const char* name;
  T& value;
  std::size_t size() const {
    return value.empty() ? 0 : DefaultList<T>{name, value}.size();
  }
  void put(Bytes& out) const {
    if (!value.empty()) DefaultList<T>{name, value}.put(out);
  }
  void get(ByteReader& r) const {
    if (!r.done()) DefaultList<T>{name, value}.get(r);
  }
};

/// A one-byte presence flag (any non-zero byte means present), then the
/// fields() struct inline when present.
template <typename T>
struct Optional {
  static constexpr std::size_t kMinSize = 1;
  static constexpr bool kFixed = false;
  const char* name;
  T& value;
  std::size_t size() const { return 1 + (value ? encoded_size(*value) : 0); }
  void put(Bytes& out) const {
    out.push_back(value ? 1 : 0);
    if (value) encode_into(out, *value);
  }
  void get(ByteReader& r) const {
    if (get_uint<1>(r) != 0)
      decode_into(r, value.emplace());
    else
      value.reset();
  }
};

}  // namespace detail

// --- field-line factories ----------------------------------------------

template <typename T>
detail::Word<8, T> u64(const char* name, T& value) {
  static_assert(std::is_integral_v<std::remove_const_t<T>> &&
                !std::is_same_v<std::remove_const_t<T>, bool>);
  return {name, value};
}
template <typename T>
detail::Word<2, T> u16(const char* name, T& value) {
  static_assert(std::is_same_v<std::remove_const_t<T>, std::uint16_t>);
  return {name, value};
}
template <typename T>
detail::Word<1, T> u8(const char* name, T& value) {
  static_assert(std::is_same_v<std::remove_const_t<T>, std::uint8_t>);
  return {name, value};
}
template <std::size_t kWidth = 8, typename T>
detail::Word<kWidth, T> boolean(const char* name, T& value) {
  static_assert(std::is_same_v<std::remove_const_t<T>, bool>);
  return {name, value};
}
template <typename T>
detail::Word<8, T> f64(const char* name, T& value) {
  static_assert(std::is_same_v<std::remove_const_t<T>, double>);
  return {name, value};
}
template <std::size_t kLength = 8, typename T>
detail::Str<kLength, T> str(const char* name, T& value) {
  return {name, value};
}
template <auto kLast, typename T>
detail::Enum<8, kLast, T> enum_u64(const char* name, T& value) {
  return {name, value};
}
template <auto kLast, typename T>
detail::Enum<1, kLast, T> enum_u8(const char* name, T& value) {
  return {name, value};
}
template <typename T>
detail::List<8, T, detail::Word<4, detail::ElementOf<T>>> u32s(
    const char* name, T& value) {
  return {name, value};
}
template <auto kLast, std::size_t kCount = 8, typename T>
detail::List<kCount, T, detail::Enum<1, kLast, detail::ElementOf<T>>>
enum_u8s(const char* name, T& value) {
  return {name, value};
}
template <typename T>
detail::Raw<T> raw(const char* name, T& value) {
  return {name, value};
}
template <std::size_t kLength = 0, typename T>
detail::Nested<kLength, T> nested(const char* name, T& value) {
  return {name, value};
}
template <std::size_t kCount = 8, typename T>
detail::List<kCount, T, detail::Element<detail::ElementOf<T>>> list(
    const char* name, T& value) {
  return {name, value};
}
template <typename T>
detail::List<8, T, detail::Nested<8, detail::ElementOf<T>>> framed(
    const char* name, T& value) {
  return {name, value};
}
template <typename T>
detail::Trailing<T> trailing(const char* name, T& value) {
  return {name, value};
}
template <typename T>
detail::Optional<T> optional(const char* name, T& value) {
  return {name, value};
}

// --- the derived codecs -------------------------------------------------

/// Fewest bytes any encoding of S takes (a trailing block counts 0).
template <typename S>
constexpr std::size_t min_size() {
  return detail::Layout<S, detail::MinSize>::value;
}

/// The exact encoded size of S when every field has a fixed size.
template <typename S>
constexpr std::size_t fixed_size() {
  static_assert(detail::Layout<S, detail::IsFixed>::value,
                "every field of S must have a fixed size");
  return min_size<S>();
}

template <typename S>
std::size_t encoded_size(const S& s) {
  return detail::visit(s, detail::Sizer{});
}

/// Appends the encoding of `s` to `out`.
template <typename S>
void encode_into(Bytes& out, const S& s) {
  detail::visit(s, detail::Encoder{out});
}

/// The encoding of `s`, allocated once at its exact size.
template <typename S>
Bytes encode(const S& s) {
  Bytes out;
  out.reserve(encoded_size(s));
  encode_into(out, s);
  return out;
}

/// Decodes fields into `s` from the reader's position onward.
template <typename S>
void decode_into(ByteReader& r, S& s) {
  detail::visit(s, detail::Decoder{r});
}

/// Decodes one S that must span `bytes` exactly.
template <typename S>
S decode(BytesView bytes) {
  ByteReader r(bytes);
  S s{};
  decode_into(r, s);
  if (!r.done())
    throw WireError(
        detail::visit(s, [](const char* owner, const auto&...) {
          return std::string(owner);
        }) +
        ": " + std::to_string(r.remaining()) + " trailing bytes");
  return s;
}

/// Chained SHA-256 (hex) over the encoding of each item, in order: the
/// fingerprint of a stream of fields() structs. Encodings are hashed back
/// to back, so a stream digested item by item as it is produced (a trace
/// file's event digest) reaches the same value.
template <typename S>
std::string fingerprint(const std::vector<S>& items) {
  crypto::Sha256 hasher;
  Bytes encoded;
  for (const S& s : items) {
    encoded.clear();
    encode_into(encoded, s);
    hasher.update(encoded);
  }
  const crypto::Sha256Digest digest = hasher.finalize();
  return to_hex(BytesView(digest.data(), digest.size()));
}

}  // namespace onion::codec

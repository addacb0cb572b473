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
// encoding. The encodings (all over the common/bytes conventions):
//
//   u64       big-endian 64-bit word (any unsigned integer)
//   f64       double, bit-cast to a word
//   str       length-prefixed string
//   boolean   a word, 1 or 0 (any non-zero word decodes as true)
//   enum_u64  an enum as a word; enum_u8 as one byte. Decoding rejects
//             a value past the enumerator named in the field line
//   u32s      count-prefixed big-endian 32-bit entries
//   raw       a fixed-size byte array (a digest), no prefix
//   nested    another fields() struct, inline
//   list      count-prefixed words or inline fields() structs
//   framed    count-prefixed fields() structs, each length-prefixed
//   trailing  a list omitted entirely when empty. Only as the last field
//             of a struct whose encoding is length-delimited: decoding
//             reads it iff bytes remain
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

#include "common/bytes.hpp"

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

/// Elements of list/trailing: unsigned integers travel as words, structs
/// through their own fields().
template <typename E>
constexpr std::size_t element_min_size() {
  if constexpr (std::is_integral_v<E>)
    return 8;
  else
    return min_size<E>();
}
template <typename E>
std::size_t element_size(const E& e) {
  if constexpr (std::is_integral_v<E>)
    return 8;
  else
    return encoded_size(e);
}
template <typename E>
void put_element(Bytes& out, const E& e) {
  if constexpr (std::is_integral_v<E>)
    put_u64(out, e);
  else
    encode_into(out, e);
}
template <typename E>
void get_element(ByteReader& r, E& e) {
  if constexpr (std::is_integral_v<E>)
    e = static_cast<E>(r.u64());
  else
    decode_into(r, e);
}

template <typename T>
using Value = std::remove_const_t<T>;

// --- the encodings: each holds the field's name and a reference to it --

/// One 64-bit word: unsigned integers and bools as is (a bool decodes
/// as word != 0), doubles bit-cast.
template <typename T>
struct Word {
  static constexpr std::size_t kMinSize = 8;
  static constexpr bool kFixed = true;
  const char* name;
  T& value;
  std::size_t size() const { return 8; }
  void put(Bytes& out) const {
    if constexpr (std::is_floating_point_v<Value<T>>)
      put_f64(out, value);
    else
      put_u64(out, static_cast<std::uint64_t>(value));
  }
  void get(ByteReader& r) const {
    if constexpr (std::is_floating_point_v<Value<T>>)
      value = r.f64();
    else
      value = static_cast<Value<T>>(r.u64());
  }
};

template <typename T>
struct Str {
  static constexpr std::size_t kMinSize = 8;
  static constexpr bool kFixed = false;
  const char* name;
  T& value;
  std::size_t size() const { return 8 + value.size(); }
  void put(Bytes& out) const { put_string(out, value); }
  void get(ByteReader& r) const { value = r.str(); }
};

template <std::size_t kWidth, auto kLast, typename T>
struct Enum {
  static_assert(std::is_same_v<Value<T>, decltype(kLast)>);
  static_assert(kWidth == 1 || kWidth == 8);
  static constexpr std::size_t kMinSize = kWidth;
  static constexpr bool kFixed = true;
  const char* name;
  T& value;
  std::size_t size() const { return kWidth; }
  void put(Bytes& out) const {
    if constexpr (kWidth == 1)
      out.push_back(static_cast<std::uint8_t>(value));
    else
      put_u64(out, static_cast<std::uint64_t>(value));
  }
  void get(ByteReader& r) const {
    const std::uint64_t v = kWidth == 1 ? r.raw(1)[0] : r.u64();
    if (v > static_cast<std::uint64_t>(kLast))
      throw WireError("unknown enumerator value " + std::to_string(v) +
                      " (the last is " +
                      std::to_string(static_cast<std::uint64_t>(kLast)) +
                      ")");
    value = static_cast<Value<T>>(v);
  }
};

template <typename T>
struct U32s {
  static constexpr std::size_t kMinSize = 8;
  static constexpr bool kFixed = false;
  const char* name;
  T& value;
  std::size_t size() const { return 8 + 4 * value.size(); }
  void put(Bytes& out) const {
    put_u64(out, value.size());
    for (const std::uint32_t v : value) {
      out.push_back(static_cast<std::uint8_t>(v >> 24));
      out.push_back(static_cast<std::uint8_t>(v >> 16));
      out.push_back(static_cast<std::uint8_t>(v >> 8));
      out.push_back(static_cast<std::uint8_t>(v));
    }
  }
  void get(ByteReader& r) const {
    const std::uint64_t count = r.u64();
    check_count(count, r, 4);
    value.clear();
    value.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      const BytesView b = r.raw(4);
      value.push_back(static_cast<std::uint32_t>(b[0]) << 24 |
                      static_cast<std::uint32_t>(b[1]) << 16 |
                      static_cast<std::uint32_t>(b[2]) << 8 |
                      static_cast<std::uint32_t>(b[3]));
    }
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

template <typename T>
struct Nested {
  static constexpr std::size_t kMinSize = min_size<Value<T>>();
  static constexpr bool kFixed = Layout<Value<T>, IsFixed>::value;
  const char* name;
  T& value;
  std::size_t size() const { return encoded_size(value); }
  void put(Bytes& out) const { encode_into(out, value); }
  void get(ByteReader& r) const { decode_into(r, value); }
};

template <typename T>
struct List {
  using E = typename Value<T>::value_type;
  static_assert(element_min_size<E>() > 0);
  static constexpr std::size_t kMinSize = 8;
  static constexpr bool kFixed = false;
  const char* name;
  T& value;
  std::size_t size() const {
    std::size_t n = 8;
    for (const E& e : value) n += element_size(e);
    return n;
  }
  void put(Bytes& out) const {
    put_u64(out, value.size());
    for (const E& e : value) put_element(out, e);
  }
  void get(ByteReader& r) const {
    const std::uint64_t count = r.u64();
    check_count(count, r, element_min_size<E>());
    value.clear();
    value.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i)
      get_element(r, value.emplace_back());
  }
};

template <typename T>
struct Framed {
  using E = typename Value<T>::value_type;
  static constexpr std::size_t kMinSize = 8;
  static constexpr bool kFixed = false;
  const char* name;
  T& value;
  std::size_t size() const {
    std::size_t n = 8;
    for (const E& e : value) n += 8 + encoded_size(e);
    return n;
  }
  void put(Bytes& out) const {
    put_u64(out, value.size());
    for (const E& e : value) {
      put_u64(out, encoded_size(e));
      encode_into(out, e);
    }
  }
  void get(ByteReader& r) const {
    const std::uint64_t count = r.u64();
    check_count(count, r, 8 + min_size<E>());
    value.clear();
    value.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      ByteReader element(r.raw(static_cast<std::size_t>(r.u64())));
      decode_into(element, value.emplace_back());
      if (!element.done())
        throw WireError("element " + std::to_string(i) + " has " +
                        std::to_string(element.remaining()) +
                        " trailing bytes");
    }
  }
};

template <typename T>
struct Trailing {
  static constexpr bool kTrailing = true;
  static constexpr std::size_t kMinSize = 0;
  static constexpr bool kFixed = false;
  const char* name;
  T& value;
  std::size_t size() const {
    return value.empty() ? 0 : List<T>{name, value}.size();
  }
  void put(Bytes& out) const {
    if (!value.empty()) List<T>{name, value}.put(out);
  }
  void get(ByteReader& r) const {
    if (!r.done()) List<T>{name, value}.get(r);
  }
};

}  // namespace detail

// --- field-line factories ----------------------------------------------

template <typename T>
detail::Word<T> u64(const char* name, T& value) {
  static_assert(std::is_unsigned_v<std::remove_const_t<T>> &&
                !std::is_same_v<std::remove_const_t<T>, bool>);
  return {name, value};
}
template <typename T>
detail::Word<T> boolean(const char* name, T& value) {
  static_assert(std::is_same_v<std::remove_const_t<T>, bool>);
  return {name, value};
}
template <typename T>
detail::Word<T> f64(const char* name, T& value) {
  static_assert(std::is_same_v<std::remove_const_t<T>, double>);
  return {name, value};
}
template <typename T>
detail::Str<T> str(const char* name, T& value) {
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
detail::U32s<T> u32s(const char* name, T& value) {
  return {name, value};
}
template <typename T>
detail::Raw<T> raw(const char* name, T& value) {
  return {name, value};
}
template <typename T>
detail::Nested<T> nested(const char* name, T& value) {
  return {name, value};
}
template <typename T>
detail::List<T> list(const char* name, T& value) {
  return {name, value};
}
template <typename T>
detail::Framed<T> framed(const char* name, T& value) {
  return {name, value};
}
template <typename T>
detail::Trailing<T> trailing(const char* name, T& value) {
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

}  // namespace onion::codec

// One field list per wire message drives both its encode and its decode.
//
// A message lists its fields once, in wire order:
//
//   struct LeaseAck : codec::Message<LeaseAck> {
//     std::uint32_t seq = 0;
//     bool ok = false;
//     SimDuration lease_duration = 0;
//     std::vector<std::string> degraded_modules;
//     std::string reason;
//
//     template <class F> void fields(F& f) {
//       f(seq, ok, lease_duration);
//       f.list16(degraded_modules, "degraded_modules");
//       f(reason);
//     }
//     bool validate() const { return lease_duration >= 0; }  // optional
//   };
//
// codec::Message<T> gives T `Bytes encode() const` and
// `static std::optional<T> decode(const Bytes&)`, both walking fields().
// A field's wire kind follows from its C++ type:
//
//   uint8/16/32/64_t, int, int64_t  big-endian, two's complement (int: 4 B)
//   double                          IEEE-754 bits, 8 bytes
//   bool                            1 byte, 0 or 1
//   enum                            1 byte, valid iff wire_valid(e) (by ADL)
//   std::string, Bytes              u32 length, then the bytes
//   std::optional<T>                presence byte (0 or 1), then T if set
//   std::variant<Ts...>             tag byte (alternative index + 1), then it
//   a struct with fields()          its fields, then its validate() if any
//
// and a few kinds are named at the call:
//
//   f.byte(i)               an int carried in one byte
//   f.list16(c, "name")     u16 count, then each element of a vector or map
//   f.list32(c, "name")     the same with a u32 count
//   f.blob_list32(c, "name")  list32 with each element in its own blob
//   f.blob(x)               x's fields inside a u32-length blob
//   f.flags(o...)           up to 8 optionals: a bitmask byte (bit i set
//                           when o_i is), then the set ones in order
//
// Decode follows one rule for every message. It stops at the first overrun
// or invalid value; takes enums, bools and presence bytes only at values an
// encoder writes (and map keys only strictly ascending); runs validate() on
// every struct it finishes; and requires the input to be consumed exactly.
// Every list element takes at least one byte, so a count larger than the
// bytes left is rejected before any element is read; lists grow as their
// elements decode and are never reserved from a count.
//
// Encode checks every count against its width. A list too long for its
// count field is a bug in whoever built the message, so the writer stops
// the program there, naming the message and the field, in every build type.
#pragma once

#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <variant>

#include "util/bytes.h"

namespace pvn::codec {

// Prints which list of which message (a typeid name) outgrew its count
// field, then aborts.
[[noreturn]] void count_overflow(const char* message, const char* field,
                                 std::size_t n, std::size_t max);

template <class T> inline constexpr bool kIsOptional = false;
template <class T> inline constexpr bool kIsOptional<std::optional<T>> = true;
template <class T> inline constexpr bool kIsVariant = false;
template <class... Ts>
inline constexpr bool kIsVariant<std::variant<Ts...>> = true;
template <class T> inline constexpr bool kIsPair = false;
template <class K, class V>
inline constexpr bool kIsPair<std::pair<K, V>> = true;
template <class C>
inline constexpr bool kIsMap = requires { typename C::mapped_type; };
template <class T> inline constexpr bool kNoWireKind = false;

class Writer {
 public:
  Writer(ByteWriter& w, const char* message) : w_(w), message_(message) {}

  template <class... Ts> void operator()(const Ts&... v) { (one(v), ...); }

  void byte(int v) { w_.u8(static_cast<std::uint8_t>(v)); }

  template <class C> void list16(const C& c, const char* field) {
    list<std::uint16_t, false>(c, field);
  }
  template <class C> void list32(const C& c, const char* field) {
    list<std::uint32_t, false>(c, field);
  }
  template <class C> void blob_list32(const C& c, const char* field) {
    list<std::uint32_t, true>(c, field);
  }

  template <class T> void blob(const T& x) {
    const std::size_t at = w_.size();
    w_.u32(0);
    one(x);
    w_.set_u32(at, count<std::uint32_t>(w_.size() - at - 4, "blob"));
  }

  template <class... Os> void flags(const Os&... o) {
    static_assert(sizeof...(Os) <= 8);
    std::uint8_t bits = 0;
    int bit = 0;
    ((bits |= static_cast<std::uint8_t>(o.has_value() << bit++)), ...);
    w_.u8(bits);
    ((o ? one(*o) : void()), ...);
  }

  template <class T> void one(const T& v) {
    if constexpr (requires(T& t, Writer& f) { t.fields(f); }) {
      // fields() also serves decode, so it is not const; this only reads.
      const_cast<T&>(v).fields(*this);
    } else if constexpr (std::is_same_v<T, bool>) {
      w_.u8(v ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
      w_.u8(static_cast<std::uint8_t>(v));
    } else if constexpr (std::is_integral_v<T>) {
      const auto u = static_cast<std::make_unsigned_t<T>>(v);
      if constexpr (sizeof(T) == 1) w_.u8(u);
      if constexpr (sizeof(T) == 2) w_.u16(u);
      if constexpr (sizeof(T) == 4) w_.u32(u);
      if constexpr (sizeof(T) == 8) w_.u64(u);
    } else if constexpr (std::is_same_v<T, double>) {
      w_.f64(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_.str(v);
    } else if constexpr (std::is_same_v<T, Bytes>) {
      w_.blob(v);
    } else if constexpr (kIsOptional<T>) {
      one(v.has_value());
      if (v) one(*v);
    } else if constexpr (kIsVariant<T>) {
      w_.u8(static_cast<std::uint8_t>(v.index() + 1));
      std::visit([this](const auto& alt) { one(alt); }, v);
    } else if constexpr (kIsPair<T>) {
      one(v.first);
      one(v.second);
    } else {
      static_assert(kNoWireKind<T>, "no wire kind for this field type");
    }
  }

 private:
  template <class N> N count(std::size_t n, const char* field) const {
    constexpr std::size_t kMax = std::numeric_limits<N>::max();
    if (n > kMax) count_overflow(message_, field, n, kMax);
    return static_cast<N>(n);
  }

  template <class N, bool kEachInBlob, class C>
  void list(const C& c, const char* field) {
    one(count<N>(c.size(), field));
    for (const auto& e : c) {
      if constexpr (kEachInBlob) {
        blob(e);
      } else {
        one(e);
      }
    }
  }

  ByteWriter& w_;
  const char* message_;
};

class Reader {
 public:
  explicit Reader(ByteReader& r) : r_(r) {}

  bool ok() const { return r_.ok(); }

  template <class... Ts> void operator()(Ts&... v) {
    ((ok() ? one(v) : void()), ...);
  }

  void byte(int& v) { v = r_.u8(); }

  template <class C> void list16(C& c, const char*) {
    list<std::uint16_t, false>(c);
  }
  template <class C> void list32(C& c, const char*) {
    list<std::uint32_t, false>(c);
  }
  template <class C> void blob_list32(C& c, const char*) {
    list<std::uint32_t, true>(c);
  }

  template <class T> void blob(T& x) {
    ByteReader inner = r_.sub(r_.u32());
    Reader(inner).one(x);
    if (!inner.exhausted()) r_.fail();
  }

  template <class... Os> void flags(Os&... o) {
    const unsigned bits = r_.u8();
    if (bits >> sizeof...(Os) != 0) return r_.fail();  // an unassigned bit
    int bit = 0;
    const auto read_if_set = [&](auto& opt) {
      if ((bits >> bit++ & 1) != 0 && ok()) one(opt.emplace());
    };
    (read_if_set(o), ...);
  }

  template <class T> void one(T& v) {
    if constexpr (requires(T& t, Reader& f) { t.fields(f); }) {
      v.fields(*this);
      if constexpr (requires { v.validate(); }) {
        if (ok() && !v.validate()) r_.fail();
      }
    } else if constexpr (std::is_same_v<T, bool>) {
      const std::uint8_t b = r_.u8();
      if (b > 1) r_.fail();
      v = b == 1;
    } else if constexpr (std::is_enum_v<T>) {
      v = static_cast<T>(r_.u8());
      if (!wire_valid(v)) r_.fail();
    } else if constexpr (std::is_integral_v<T>) {
      if constexpr (sizeof(T) == 1) v = static_cast<T>(r_.u8());
      if constexpr (sizeof(T) == 2) v = static_cast<T>(r_.u16());
      if constexpr (sizeof(T) == 4) v = static_cast<T>(r_.u32());
      if constexpr (sizeof(T) == 8) v = static_cast<T>(r_.u64());
    } else if constexpr (std::is_same_v<T, double>) {
      v = r_.f64();
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = r_.str();
    } else if constexpr (std::is_same_v<T, Bytes>) {
      v = r_.blob();
    } else if constexpr (kIsOptional<T>) {
      bool present = false;
      one(present);
      if (present && ok()) one(v.emplace());
    } else if constexpr (kIsVariant<T>) {
      const std::uint8_t tag = r_.u8();
      if (tag == 0 || tag > std::variant_size_v<T>) return r_.fail();
      emplace_alternative<0>(v, tag - 1u);
      std::visit([this](auto& alt) { one(alt); }, v);
    } else {
      static_assert(kNoWireKind<T>, "no wire kind for this field type");
    }
  }

 private:
  template <std::size_t I, class V>
  static void emplace_alternative(V& v, std::size_t index) {
    if constexpr (I < std::variant_size_v<V>) {
      if (index == I) {
        v.template emplace<I>();
      } else {
        emplace_alternative<I + 1>(v, index);
      }
    }
  }

  template <class N, bool kEachInBlob, class C> void list(C& c) {
    N n = 0;
    one(n);
    if (n > r_.remaining()) return r_.fail();
    for (N i = 0; i < n && ok(); ++i) {
      if constexpr (kIsMap<C>) {
        typename C::key_type key{};
        typename C::mapped_type value{};
        (*this)(key, value);
        if (!ok()) return;
        if (!c.empty() && !(std::prev(c.end())->first < key)) {
          return r_.fail();
        }
        c.emplace_hint(c.end(), std::move(key), std::move(value));
      } else if constexpr (kEachInBlob) {
        blob(c.emplace_back());
      } else {
        one(c.emplace_back());
      }
    }
  }

  ByteReader& r_;
};

// Appends `msg`'s fields to `w`.
template <class T> void write(ByteWriter& w, const T& msg) {
  Writer(w, typeid(T).name()).one(msg);
}

// Reads `msg`'s fields from `r`; false, with `r` failed, on malformed input.
template <class T> bool read(ByteReader& r, T& msg) {
  Reader(r).one(msg);
  return r.ok();
}

template <class T> Bytes encode(const T& msg) {
  ByteWriter w;
  write(w, msg);
  return std::move(w).take();
}

template <class T>
std::optional<T> decode(std::span<const std::uint8_t> raw) {
  ByteReader r(raw);
  T msg;
  if (!read(r, msg) || !r.exhausted()) return std::nullopt;
  return msg;
}

// The encode/decode pair every wire message carries.
template <class T> struct Message {
  Bytes encode() const { return codec::encode(static_cast<const T&>(*this)); }
  static std::optional<T> decode(const Bytes& raw) {
    return codec::decode<T>(raw);
  }
  bool operator==(const Message&) const = default;
};

}  // namespace pvn::codec

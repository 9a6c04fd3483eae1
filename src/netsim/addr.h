// IPv4-lite addressing: 32-bit addresses and CIDR prefixes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace pvn {

struct Ipv4Addr {
  std::uint32_t v = 0;

  constexpr Ipv4Addr() = default;
  constexpr explicit Ipv4Addr(std::uint32_t raw) : v(raw) {}
  constexpr Ipv4Addr(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                     std::uint8_t d)
      : v((std::uint32_t(a) << 24) | (std::uint32_t(b) << 16) |
          (std::uint32_t(c) << 8) | std::uint32_t(d)) {}

  static std::optional<Ipv4Addr> parse(std::string_view s);
  std::string to_string() const;

  constexpr bool is_unspecified() const { return v == 0; }

  template <class F> void fields(F& f) { f(v); }  // util/codec.h

  constexpr bool operator==(const Ipv4Addr&) const = default;
  constexpr auto operator<=>(const Ipv4Addr&) const = default;
};

// The well-known anycast address PVN discovery messages flood to when the
// immediate access network does not answer (paper §3.1: "special anycast
// addresses").
constexpr Ipv4Addr kPvnAnycast{255, 0, 0, 53};

struct Prefix {
  Ipv4Addr addr;
  int len = 32;  // 0..32

  static std::optional<Prefix> parse(std::string_view cidr);
  bool contains(Ipv4Addr ip) const;
  std::string to_string() const;

  template <class F> void fields(F& f) {  // util/codec.h
    f(addr);
    f.byte(len);
  }
  bool validate() const { return len <= 32; }

  bool operator==(const Prefix&) const = default;
};

}  // namespace pvn

template <>
struct std::hash<pvn::Ipv4Addr> {
  std::size_t operator()(const pvn::Ipv4Addr& a) const noexcept {
    return std::hash<std::uint32_t>{}(a.v);
  }
};

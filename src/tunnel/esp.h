// ESP-lite encapsulation: packet-in-packet with an HMAC tag.
//
// Used for (a) the VPN fallback when an access network offers no PVN support
// (paper §3.3 "Coping with unavailability") and (b) selective redirection of
// sensitive flows to a trusted cloud enclave (Fig. 1c).
#pragma once

#include <optional>

#include "netsim/packet.h"
#include "util/digest.h"

namespace pvn {

struct EspHeader {
  std::uint32_t spi = 0;   // security association id
  std::uint32_t seq = 0;
};

// Wraps `inner` (its IP header + L4) for transport to `gateway`.
// The whole inner packet is MAC'd with `key`. Encap and decap take the
// packet by value and carry its out-of-band fields (id, creation time, hop
// trace, trace id) into the result; a caller that owns the packet passes
// it as an rvalue, so the hop trace is moved rather than copied.
Packet esp_encap(Packet inner, Ipv4Addr outer_src, Ipv4Addr gateway,
                 const Bytes& key, std::uint32_t spi, std::uint32_t seq);

// Unwraps; returns nullopt if the MAC fails or the buffer is malformed.
std::optional<Packet> esp_decap(Packet outer, const Bytes& key);

// Reads just the SPI (to select the SA/key) without authenticating.
std::optional<std::uint32_t> esp_peek_spi(const Packet& outer);

}  // namespace pvn

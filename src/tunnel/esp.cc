#include "tunnel/esp.h"

namespace pvn {
namespace {

// Frame layout (l4 of the outer packet):
//   u32 spi | u32 seq | u32 len | inner IP header + inner l4 | MAC
// where len counts the inner bytes and the MAC is hmac(key, inner) as four
// big-endian u64 lanes (Digest::to_bytes). Bytes after the MAC are ignored.
constexpr std::size_t kInnerOffset = 12;
constexpr std::size_t kMacSize = 32;

}  // namespace

Packet esp_encap(Packet inner, Ipv4Addr outer_src, Ipv4Addr gateway,
                 const Bytes& key, std::uint32_t spi, std::uint32_t seq) {
  const std::size_t inner_size = inner.size();
  ByteWriter w;
  w.reserve(kInnerOffset + inner_size + kMacSize);
  w.u32(spi);
  w.u32(seq);
  w.u32(static_cast<std::uint32_t>(inner_size));
  inner.ip.encode(w);
  w.raw(inner.l4);
  // MAC the inner packet where it already lies in the frame, then append.
  const Digest mac =
      hmac(key, std::span<const std::uint8_t>(w.bytes()).subspan(kInnerOffset));
  for (const std::uint64_t lane : mac.lanes) w.u64(lane);

  Packet outer;
  outer.id = inner.id;  // preserve identity for tracing
  outer.ip.src = outer_src;
  outer.ip.dst = gateway;
  outer.ip.proto = IpProto::kEsp;
  outer.ip.tos = 0;  // tunnels hide the inner class (tunneled traffic may be
                     // subject to different ISP policies — §3.2)
  outer.l4 = std::move(w).take();
  outer.created_at = inner.created_at;
  outer.hop_trace = std::move(inner.hop_trace);
  outer.trace_id = inner.trace_id;
  return outer;
}

std::optional<Packet> esp_decap(Packet outer, const Bytes& key) {
  if (outer.ip.proto != IpProto::kEsp) return std::nullopt;
  const std::span<const std::uint8_t> frame = outer.l4.get();
  ByteReader r(frame);
  r.u32();  // spi
  r.u32();  // seq
  const std::size_t len = r.u32();
  // The declared inner packet must hold an IP header and fit in the frame
  // with a whole MAC behind it.
  if (!r.ok() || len < IpHeader::kWireSize ||
      r.remaining() < len + kMacSize) {
    return std::nullopt;
  }
  // Authenticate the inner bytes in place; only the inner l4 is copied out.
  const std::span<const std::uint8_t> inner_bytes =
      frame.subspan(kInnerOffset, len);
  const auto mac = Digest::from_bytes(frame.subspan(kInnerOffset + len, kMacSize));
  if (!mac || hmac(key, inner_bytes) != *mac) return std::nullopt;

  ByteReader ir(inner_bytes);
  Packet inner;
  inner.id = outer.id;
  inner.ip = IpHeader::decode(ir);
  inner.l4 = ir.raw(ir.remaining());
  inner.created_at = outer.created_at;
  inner.hop_trace = std::move(outer.hop_trace);
  inner.trace_id = outer.trace_id;
  return inner;
}

std::optional<std::uint32_t> esp_peek_spi(const Packet& outer) {
  if (outer.ip.proto != IpProto::kEsp || outer.l4.size() < 4) {
    return std::nullopt;
  }
  ByteReader r(outer.l4);
  return r.u32();
}

}  // namespace pvn

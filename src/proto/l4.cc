#include "proto/l4.h"

#include <algorithm>

#include "netsim/packet.h"

namespace pvn {

void TcpHeader::encode(ByteWriter& w) const {
  w.u16(src_port);
  w.u16(dst_port);
  w.u32(seq);
  w.u32(ack);
  w.u8(flags);
  w.u32(window);
  w.u16(0);  // pad the base header to the nominal 20 bytes
  const std::size_t n = sacks.size() < kMaxSackRanges ? sacks.size()
                                                      : kMaxSackRanges;
  w.u8(static_cast<std::uint8_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    w.u32(sacks[i].first);
    w.u32(sacks[i].second);
  }
}

TcpHeader TcpHeader::decode(ByteReader& r) {
  TcpHeader h;
  h.src_port = r.u16();
  h.dst_port = r.u16();
  h.seq = r.u32();
  h.ack = r.u32();
  h.flags = r.u8();
  h.window = r.u32();
  r.u16();
  const std::uint8_t n = r.u8();
  for (std::uint8_t i = 0; i < n && i < kMaxSackRanges; ++i) {
    const std::uint32_t begin = r.u32();
    const std::uint32_t end = r.u32();
    h.sacks.emplace_back(begin, end);
  }
  return h;
}

void UdpHeader::encode(ByteWriter& w) const {
  w.u16(src_port);
  w.u16(dst_port);
  w.u32(0);  // pad to 8 bytes (length/checksum slot)
}

UdpHeader UdpHeader::decode(ByteReader& r) {
  UdpHeader h;
  h.src_port = r.u16();
  h.dst_port = r.u16();
  r.u32();
  return h;
}

std::optional<TcpSegment> parse_tcp(const Bytes& l4) {
  ByteReader r(l4);
  TcpSegment seg;
  seg.hdr = TcpHeader::decode(r);
  if (!r.ok()) return std::nullopt;
  seg.payload = r.raw(r.remaining());
  return seg;
}

std::optional<UdpDatagram> parse_udp(const Bytes& l4) {
  ByteReader r(l4);
  UdpDatagram dg;
  dg.hdr = UdpHeader::decode(r);
  if (!r.ok()) return std::nullopt;
  dg.payload = r.raw(r.remaining());
  return dg;
}

Bytes serialize_tcp(const TcpHeader& hdr, const Bytes& payload) {
  ByteWriter w;
  const std::size_t sacks =
      std::min(hdr.sacks.size(), TcpHeader::kMaxSackRanges);
  w.reserve(TcpHeader::kWireSize + 8 * sacks + payload.size());
  hdr.encode(w);
  w.raw(payload);
  return std::move(w).take();
}

Bytes serialize_udp(const UdpHeader& hdr, const Bytes& payload) {
  ByteWriter w;
  w.reserve(UdpHeader::kWireSize + payload.size());
  hdr.encode(w);
  w.raw(payload);
  return std::move(w).take();
}

bool peek_ports(std::uint8_t ip_proto, const Bytes& l4, Port& src, Port& dst) {
  const auto proto = static_cast<IpProto>(ip_proto);
  if (proto != IpProto::kTcp && proto != IpProto::kUdp) return false;
  if (l4.size() < 4) return false;
  src = static_cast<Port>((l4[0] << 8) | l4[1]);
  dst = static_cast<Port>((l4[2] << 8) | l4[3]);
  return true;
}

}  // namespace pvn

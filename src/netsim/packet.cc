#include "netsim/packet.h"

namespace pvn {

const char* to_string(IpProto proto) {
  switch (proto) {
    case IpProto::kIcmp: return "icmp";
    case IpProto::kTcp: return "tcp";
    case IpProto::kUdp: return "udp";
    case IpProto::kEsp: return "esp";
  }
  return "?";
}

void IpHeader::encode(ByteWriter& w) const {
  w.u32(src.v);
  w.u32(dst.v);
  w.u8(static_cast<std::uint8_t>(proto));
  w.u8(ttl);
  w.u8(tos);
  // Pad to the nominal 20-byte IPv4 header size.
  for (int i = 0; i < 9; ++i) w.u8(0);
}

IpHeader IpHeader::decode(ByteReader& r) {
  IpHeader h;
  h.src = Ipv4Addr(r.u32());
  h.dst = Ipv4Addr(r.u32());
  h.proto = static_cast<IpProto>(r.u8());
  h.ttl = r.u8();
  h.tos = r.u8();
  r.skip(9);
  return h;
}

std::vector<std::string> HopTrace::strings() const {
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (const std::uint32_t id : ids) out.push_back(names->name_of(id));
  return out;
}

}  // namespace pvn

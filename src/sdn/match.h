// OpenFlow-lite match fields. Every field is optional; an unset field is a
// wildcard. PVNC compilation (src/pvn/compiler) targets this structure.
#pragma once

#include <optional>
#include <string>

#include "netsim/packet.h"
#include "proto/l4.h"

namespace pvn {

struct FlowMatch {
  std::optional<int> in_port;
  std::optional<Prefix> src;
  std::optional<Prefix> dst;
  std::optional<IpProto> proto;
  std::optional<Port> src_port;
  std::optional<Port> dst_port;
  std::optional<std::uint8_t> tos;

  // True iff every set field matches the packet.
  bool matches(const Packet& pkt, int in_port_no) const;

  // Number of set fields — used to prefer more-specific rules among equal
  // priorities.
  int specificity() const;

  std::string to_string() const;

  bool operator==(const FlowMatch&) const = default;

  // Convenience builders.
  static FlowMatch any() { return {}; }
  static FlowMatch to_dst(Prefix p) {
    FlowMatch m;
    m.dst = p;
    return m;
  }
  static FlowMatch of_proto(IpProto p) {
    FlowMatch m;
    m.proto = p;
    return m;
  }
  static FlowMatch to_port(IpProto p, Port port) {
    FlowMatch m;
    m.proto = p;
    m.dst_port = port;
    return m;
  }
};

// FlowMatch's two wire layouts (util/codec.h). Merging them would change
// the size of every DeployRequest, and with it the pinned digests.
//
// In a PVNC policy: a presence byte before each field.
template <class F> void pvnc_match_fields(F& f, FlowMatch& m) {
  f(m.in_port, m.src, m.dst, m.proto, m.src_port, m.dst_port, m.tos);
}
// In an ops flow rule: one presence bitmask, then the set fields.
template <class F> void ops_match_fields(F& f, FlowMatch& m) {
  f.flags(m.in_port, m.src, m.dst, m.proto, m.src_port, m.dst_port, m.tos);
}

}  // namespace pvn

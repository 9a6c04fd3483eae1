// The unit of transmission in the simulator.
//
// A Packet carries an IPv4-lite header plus an opaque serialized L4 payload
// (TCP segment, UDP datagram, or ESP tunnel frame — see src/proto and
// src/tunnel for the codecs). The payload is a copy-on-write SharedBytes:
// copying a Packet at dataplane fan-out points (links, taps, switch
// pipelines, middlebox chains, retransmission buffers) shares the buffer and
// only an actual in-place mutation clones it. Simulation-only
// instrumentation (creation time, traversed-node trace) rides along
// out-of-band; it is *not* visible to protocol logic and exists so tests and
// the auditor benches can compare detector output against ground truth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netsim/addr.h"
#include "netsim/names.h"
#include "util/bytes.h"
#include "util/small_vector.h"
#include "util/time.h"

namespace pvn {

enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
  kEsp = 50,
};

const char* to_string(IpProto proto);
constexpr bool wire_valid(IpProto p) {
  return p == IpProto::kIcmp || p == IpProto::kTcp || p == IpProto::kUdp ||
         p == IpProto::kEsp;
}

struct IpHeader {
  Ipv4Addr src;
  Ipv4Addr dst;
  IpProto proto = IpProto::kUdp;
  std::uint8_t ttl = 64;
  std::uint8_t tos = 0;  // DSCP-style class; meters/classifiers may set it

  static constexpr std::size_t kWireSize = 20;

  void encode(ByteWriter& w) const;
  static IpHeader decode(ByteReader& r);
  bool operator==(const IpHeader&) const = default;
};

// Ground-truth record of the nodes a packet traversed. Hops are interned
// 32-bit ids against the owning Network's NameTable; the strings themselves
// are materialized only on demand (strings()), so the per-hop cost on the
// forwarding path is a single integer append.
struct HopTrace {
  std::vector<std::uint32_t> ids;
  const NameTable* names = nullptr;  // table the ids were interned against

  // Room reserved on the first hop: a typical path, so a packet's trace
  // allocates once instead of once per doubling.
  static constexpr std::size_t kTypicalHops = 8;

  // Appends a hop, binding the trace to `table` on first use.
  void record(const NameTable& table, std::uint32_t id) {
    if (names == nullptr) names = &table;
    if (ids.empty()) ids.reserve(kTypicalHops);
    ids.push_back(id);
  }

  std::size_t size() const { return ids.size(); }
  bool empty() const { return ids.empty(); }
  void clear() { ids.clear(); }

  // Materializes the traversed node names, in order.
  std::vector<std::string> strings() const;

  bool operator==(const HopTrace& other) const { return ids == other.ids; }
};

struct Packet {
  std::uint64_t id = 0;  // unique per Network, assigned at creation
  IpHeader ip;
  SharedBytes l4;  // serialized transport segment (header + payload), CoW

  // --- simulation instrumentation (not on the wire) ---
  SimTime created_at = 0;
  HopTrace hop_trace;  // node ids traversed (ground truth)
  // Causal trace that caused this packet (telemetry/trace.h ids); 0 =
  // untraced. Out-of-band like the hop trace: invisible to protocol logic,
  // read by the flight recorder so sampled packets join stitched traces.
  std::uint64_t trace_id = 0;

  std::size_t size() const { return IpHeader::kWireSize + l4.size(); }
};

// A batch of packets for PacketProcessor::process_burst (sdn/switch.h).
// Storage is a small-vector: up to kInline packets live inline; payload
// bytes are CoW SharedBytes refs, so a burst never copies packet data.
struct PacketBurst {
  static constexpr std::size_t kInline = 8;
  SmallVector<Packet, kInline> pkts;

  std::size_t size() const { return pkts.size(); }
  bool empty() const { return pkts.empty(); }
  Packet& operator[](std::size_t i) { return pkts[i]; }
  const Packet& operator[](std::size_t i) const { return pkts[i]; }
  Packet* begin() { return pkts.begin(); }
  Packet* end() { return pkts.end(); }
  const Packet* begin() const { return pkts.begin(); }
  const Packet* end() const { return pkts.end(); }
  void push_back(Packet&& p) { pkts.push_back(std::move(p)); }
  void clear() { pkts.clear(); }
};

}  // namespace pvn

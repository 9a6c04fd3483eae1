// Packet trace collection for tests, benches, and the auditor's ground truth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netsim/link.h"
#include "netsim/packet.h"
#include "util/time.h"

namespace pvn {

struct TraceRecord {
  SimTime at = 0;
  std::uint64_t packet_id = 0;
  std::string from;
  std::string to;
  Ipv4Addr src;
  Ipv4Addr dst;
  IpProto proto = IpProto::kUdp;
  std::size_t size = 0;
};

// Attaches to one or more Links and records every delivered packet, stamped
// with the receiving node's clock (its wire arrival).
class TraceCollector {
 public:
  // Appends a tap to the link; taps already on it keep observing.
  void attach(Link& link);

  const std::vector<TraceRecord>& records() const { return records_; }
  void clear() { records_.clear(); }

  // Total delivered bytes between two node names (either direction filter).
  std::uint64_t bytes_from_to(const std::string& from,
                              const std::string& to) const;
  std::size_t count_packets(IpProto proto) const;

  // Mean observed throughput of packets matching (from,to), bits/second,
  // over the records' time span. Returns 0 with fewer than 2 records.
  double mean_throughput_bps(const std::string& from,
                             const std::string& to) const;

 private:
  std::vector<TraceRecord> records_;
};

}  // namespace pvn

#include "netsim/trace.h"

#include "netsim/node.h"

namespace pvn {

void TraceCollector::attach(Link& link) {
  link.add_tap([this](const Packet& pkt, const Node& from, const Node& to) {
    records_.push_back(TraceRecord{to.sim().now(), pkt.id, from.name(),
                                   to.name(), pkt.ip.src, pkt.ip.dst,
                                   pkt.ip.proto, pkt.size()});
  });
}

std::uint64_t TraceCollector::bytes_from_to(const std::string& from,
                                            const std::string& to) const {
  std::uint64_t total = 0;
  for (const TraceRecord& r : records_) {
    if (r.from == from && r.to == to) total += r.size;
  }
  return total;
}

std::size_t TraceCollector::count_packets(IpProto proto) const {
  std::size_t n = 0;
  for (const TraceRecord& r : records_) {
    if (r.proto == proto) ++n;
  }
  return n;
}

double TraceCollector::mean_throughput_bps(const std::string& from,
                                           const std::string& to) const {
  SimTime first = -1;
  SimTime last = -1;
  std::uint64_t bytes = 0;
  for (const TraceRecord& r : records_) {
    if (r.from != from || r.to != to) continue;
    if (first < 0) first = r.at;
    last = r.at;
    bytes += r.size;
  }
  if (first < 0 || last <= first) return 0.0;
  return static_cast<double>(bytes) * 8.0 / to_seconds(last - first);
}

}  // namespace pvn

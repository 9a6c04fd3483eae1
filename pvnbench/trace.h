// The traced repetition: per-layer counts and host-time costs.
//
// Tracing lives entirely in the benchmark. It times calls into each layer's
// public functions from outside: wrappers re-registered over the switch's
// packet processors (middlebox chains, esp-decap), link taps that capture
// what each layer was asked to do, replays of those captures through the
// layer's own entry points after the clock stops (Router::route_for,
// FlowTable::lookup, the TCP codec, esp_encap, the PVNC parser/compiler),
// and the Simulator's per-category wall-clock profile.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "util/rng.h"
#include "workloads.h"

namespace pvnbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string base;  // what a ratio or mean is taken over, for the report
};

// One row of the traced-run reconciliation: host time attributed to a layer.
struct SelfTime {
  std::string layer;
  double ms = 0.0;
};

// Largest share of the traced wall time that may stay unattributed (event
// kernel bookkeeping: heap operations, profiler clock reads, sim slicing).
constexpr double kUnattributedTolerance = 0.40;

class Tracer {
 public:
  // Installs taps and wrappers on `w`; call before the simulation starts.
  Tracer(Workload& w, std::uint64_t seed);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Per-layer metrics of the finished traced repetition. `traced_wall_s` is
  // the wall time of its simulation phase. Replay mismatches and a failed
  // reconciliation are appended to `out.errors`.
  std::vector<Metric> finish(Outcome& out, double traced_wall_s);

  // Reconciliation of the last finish(): per-layer self times, ending with
  // the explicit "unattributed" remainder. They sum to the traced total.
  const std::vector<SelfTime>& self_times() const { return self_times_; }

 private:
  struct Timer {
    std::uint64_t ns = 0;
    std::uint64_t pkts = 0;
  };
  class TimedProcessor;
  struct Ingress {
    pvn::SdnSwitch* sw = nullptr;
    pvn::Packet pkt;
    int in_port = 0;
  };
  // Flow key for retransmission detection: (src, dst, sport, dport).
  using FlowKey =
      std::tuple<std::uint32_t, std::uint32_t, std::uint16_t, std::uint16_t>;

  void on_delivery(const pvn::Link& link, const pvn::Packet& pkt,
                   const pvn::Node& to);
  void on_access_tcp(const pvn::Packet& pkt);
  void wrap(pvn::SdnSwitch& sw, const std::string& id,
            pvn::PacketProcessor* inner, Timer& timer);
  // Keeps at most kCapture items, each delivered item equally likely.
  template <typename T>
  void sample(std::vector<T>& pool, std::uint64_t& seen, T item);

  Workload& w_;
  const TraceHooks hooks_;
  const std::unordered_set<const pvn::Link*> access_links_;
  pvn::Rng rng_;
  Timer chain_;
  Timer decap_;
  std::vector<std::unique_ptr<TimedProcessor>> wrappers_;

  std::vector<std::pair<pvn::Router*, pvn::Ipv4Addr>> route_dsts_;
  std::uint64_t route_seen_ = 0;
  std::vector<Ingress> ingress_;
  std::uint64_t ingress_seen_ = 0;
  std::vector<pvn::Packet> esp_;
  std::uint64_t esp_seen_ = 0;
  std::vector<pvn::Bytes> segments_;
  std::uint64_t segments_seen_ = 0;
  std::map<FlowKey, std::uint32_t> highest_seq_end_;
  std::uint64_t tcp_segments_ = 0;       // every segment on an access link
  std::uint64_t tcp_data_segments_ = 0;  // those with a payload
  std::uint64_t tcp_retransmits_ = 0;    // data segments that repeat bytes

  std::vector<SelfTime> self_times_;
};

}  // namespace pvnbench

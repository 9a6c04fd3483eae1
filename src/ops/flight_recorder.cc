#include "ops/flight_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <unordered_map>

#include "netsim/link.h"
#include "netsim/names.h"
#include "netsim/network.h"
#include "telemetry/export.h"
#include "util/hash.h"

namespace pvn {
namespace {

using telemetry::append;
using telemetry::json_escape;

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderConfig cfg)
    : cfg_(cfg), interval_(cfg.sample_interval) {
  if (cfg_.ring_capacity == 0) cfg_.ring_capacity = 1;
  if (cfg_.per_flow_cap == 0) cfg_.per_flow_cap = 1;
  cfg_.flow_slots = round_up_pow2(std::max<std::size_t>(cfg_.flow_slots, 2));
}

void FlightRecorder::attach(Network& net) {
  names_ = &net.names();
  ring_.reserve(cfg_.ring_capacity);
  clear();
  std::size_t link_index = 0;
  for (const auto& link : net.links()) {
    links_.emplace_back();
    LinkState* ls = &links_.back();
    ls->end_a = &link->end_a();
    for (int d = 0; d < 2; ++d) {
      // Deterministic seed: a function of attach order, never of wall time.
      ls->dir[d].rng.reseed(mix_u64(0xf11e7ull ^ (link_index * 2 + d)));
    }
    link->add_tap([this, ls](const Packet& p, const Node& from,
                             const Node& to) {
      // Hot path: an increment, a decrement, and a compare per packet — no
      // division. The countdown reloads from the interval only when it
      // expires, so a runtime rate change (kSetSamplingRate) takes
      // effect within one sampling period; a disabled recorder (interval
      // 0) re-checks the interval every 65536 packets.
      DirState& d = ls->dir[&from == ls->end_a ? 0 : 1];
      ++d.packets;
      if (d.until_next > 1) {
        --d.until_next;
        return;
      }
      const std::uint32_t interval = interval_;
      if (interval == 0) {
        d.until_next = 1u << 16;
        return;
      }
      if (d.until_next == 0 && interval > 1) {
        // The direction's first packet: count it, so the Nth is sampled.
        d.until_next = interval - 1;
        return;
      }
      d.until_next = interval;
      ++d.sampled;
      sample(p, to.sim().now(), d.rng);
    });
    ++link_index;
  }
}

void FlightRecorder::sample(const Packet& p, SimTime at, Rng& rng) {
  // Inline flow key over (src, dst, proto, first l4 bytes): the recorder
  // only needs a stable local identity, so two cheap 64-bit mixes stand in
  // for a wide digest on every sampled packet.
  std::uint64_t flow =
      (static_cast<std::uint64_t>(p.ip.src.v) << 32) | p.ip.dst.v;
  flow = hash_combine_u64(flow, static_cast<std::uint64_t>(p.ip.proto));
  std::uint64_t ports = 0;
  const std::size_t l4n = p.l4.size() < 8 ? p.l4.size() : 8;
  for (std::size_t i = 0; i < l4n; ++i) {
    ports = (ports << 8) | p.l4.data()[i];
  }
  flow = hash_combine_u64(flow, ports);
  FlowSlot& slot = flows_[mix_u64(flow) & (cfg_.flow_slots - 1)];
  if (slot.flow != flow) {
    slot.flow = flow;  // collision or first sight: fresh reservoir
    slot.seen = 0;
  }
  ++slot.seen;
  // Algorithm R acceptance: always keep the first per_flow_cap, then admit
  // with probability per_flow_cap / seen. (A double compare, not
  // next_below: its two 64-bit divisions per sampled packet showed in the
  // recorder's dataplane overhead.)
  if (slot.seen > cfg_.per_flow_cap &&
      rng.uniform() * static_cast<double>(slot.seen) >= cfg_.per_flow_cap) {
    ++rejected_;
    return;
  }
  ++admitted_;
  FlightSample s;
  s.at = at;
  s.packet_id = p.id;
  s.flow_hash = flow;
  s.trace_id = p.trace_id;
  s.src = p.ip.src;
  s.dst = p.ip.dst;
  s.bytes = static_cast<std::uint32_t>(p.size());
  const std::size_t hops =
      std::min(p.hop_trace.ids.size(), FlightSample::kMaxHops);
  s.hop_count = static_cast<std::uint8_t>(hops);
  std::copy_n(p.hop_trace.ids.begin(), hops, s.hop_ids);
  if (ring_.size() < cfg_.ring_capacity) {
    ring_.push_back(s);
  } else {
    ring_[wr_] = s;
    if (++wr_ == cfg_.ring_capacity) wr_ = 0;
  }
}

std::vector<FlightSample> FlightRecorder::samples() const {
  std::vector<FlightSample> out = ring_;
  std::sort(out.begin(), out.end(),
            [](const FlightSample& a, const FlightSample& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.packet_id < b.packet_id;
            });
  return out;
}

std::string FlightRecorder::trace_json() const {
  const std::vector<FlightSample> all = samples();
  // One trace track per flow, in first-seen order.
  std::unordered_map<std::uint64_t, int> tids;
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  for (const FlightSample& s : all) {
    const auto [it, fresh] =
        tids.emplace(s.flow_hash, static_cast<int>(tids.size()) + 1);
    const int tid = it->second;
    if (!first) out += ",\n";
    first = false;
    append(out,
           "  {\"name\": \"pkt %" PRIu64
           "\", \"cat\": \"flow\", \"ph\": \"i\", \"ts\": %.3f, "
           "\"pid\": 1, \"tid\": %d, \"s\": \"t\", \"args\": {\"src\": "
           "\"%s\", \"dst\": \"%s\", \"bytes\": %u, \"trace\": %" PRIu64
           ", \"hops\": [",
           s.packet_id, static_cast<double>(s.at) / 1000.0, tid,
           s.src.to_string().c_str(), s.dst.to_string().c_str(), s.bytes,
           s.trace_id);
    for (std::size_t i = 0; i < s.hop_count; ++i) {
      if (i) out += ", ";
      out += '"';
      if (names_ != nullptr && s.hop_ids[i] < names_->size()) {
        out += json_escape(names_->name_of(s.hop_ids[i]));
      } else {
        append(out, "#%u", s.hop_ids[i]);
      }
      out += '"';
    }
    out += "]}}";
    (void)fresh;
  }
  // Name each track after its flow hash so the viewer groups by flow.
  // (Sorted by tid: the map's iteration order is not deterministic.)
  std::vector<std::pair<int, std::uint64_t>> tracks;
  tracks.reserve(tids.size());
  for (const auto& [flow, tid] : tids) tracks.emplace_back(tid, flow);
  std::sort(tracks.begin(), tracks.end());
  for (const auto& [tid, flow] : tracks) {
    if (!first) out += ",\n";
    first = false;
    append(out,
           "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": %d, \"args\": {\"name\": \"flow %016" PRIx64 "\"}}",
           tid, flow);
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

FlightRecorder::Stats FlightRecorder::stats() const {
  Stats st;
  for (const LinkState& ls : links_) {
    for (const DirState& d : ls.dir) {
      st.packets_seen += d.packets;
      st.packets_sampled += d.sampled;
    }
  }
  st.packets_admitted = admitted_;
  st.packets_rejected = rejected_;
  return st;
}

void FlightRecorder::clear() {
  ring_.clear();
  wr_ = 0;
  flows_.assign(cfg_.flow_slots, FlowSlot{});
  admitted_ = 0;
  rejected_ = 0;
}

}  // namespace pvn

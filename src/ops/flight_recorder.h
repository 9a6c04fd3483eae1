// Packet-sampling flight recorder.
//
// Attaches one tap per Link and samples packets: every `sample_interval`-th
// packet per link direction is inspected, all other packets pay exactly one
// counter increment plus a countdown decrement and compare (no division —
// the countdown reloads from the interval only when it expires, so a
// runtime rate change takes effect within one sampling period).
//
// Sampled packets are admitted per flow with reservoir-style decay: the
// first `per_flow_cap` sampled packets of a flow are always kept, the n-th
// after that survives with probability per_flow_cap / n (Algorithm R's
// acceptance rule). Expected samples per flow therefore grow like
// cap * (1 + ln(N / cap)) for N sampled packets — heavy flows cannot crowd
// out mice — while the fixed-size per-shard ring bounds total memory and
// simply overwrites the oldest samples.
//
// Thread model: a cross-shard link's two directions deliver on different
// shard threads, so all mutable state is either per-direction (packet
// counters, the admission Rng) or per-shard (rings, flow slots), indexed by
// ShardGroup::current_shard(). Readers (samples(), trace_json(), stats())
// must run while the group is quiesced — between run_parallel_until calls
// or from a ShardGroup time barrier.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "netsim/addr.h"
#include "util/rng.h"
#include "util/time.h"

namespace pvn {

class Network;
class NameTable;
class Node;
struct Packet;

struct FlightRecorderConfig {
  // Sample every Nth packet per link direction; 0 disables sampling.
  std::uint32_t sample_interval = 16;
  // Per-shard ring capacity; oldest samples are overwritten.
  std::size_t ring_capacity = 4096;
  // Reservoir size per flow within the sampled stream.
  std::uint32_t per_flow_cap = 8;
  // Flow-slot table size per shard (rounded up to a power of two). A hash
  // collision resets the colliding flow's reservoir counter — acceptable
  // bias for a sampler, zero allocation on the sampling path. Size it well
  // above the expected live-flow count: when the table is tight, colliding
  // flows keep resetting each other's counters, every sampled packet looks
  // first-seen, and the reservoir cap stops biting (16 B/slot, so 4096
  // slots is 64 KiB per shard).
  std::size_t flow_slots = 4096;
};

// One sampled packet: identity, 5-tuple-ish summary, and the hop trace as
// interned name ids (resolved against the Network's NameTable on export).
// Plain trivially-copyable struct: samples are created on the sampling hot
// path and overwritten in a ring, so the hop trace is a fixed inline array
// (truncated past kMaxHops), never a heap allocation.
struct FlightSample {
  static constexpr std::size_t kMaxHops = 12;

  SimTime at = 0;  // wire arrival at the sampling link's receiving node
  std::uint64_t packet_id = 0;
  std::uint64_t flow_hash = 0;
  std::uint64_t trace_id = 0;  // owning causal trace (0 = untraced packet)
  Ipv4Addr src{};
  Ipv4Addr dst{};
  std::uint32_t bytes = 0;
  std::uint8_t hop_count = 0;
  std::uint32_t hop_ids[kMaxHops] = {};

  std::span<const std::uint32_t> hops() const {
    return {hop_ids, hop_count};
  }
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig cfg = {});
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Adds a tap to every link currently in `net` and sizes the
  // per-shard state. Call once, after topology construction.
  void attach(Network& net);

  // Runtime-adjustable (the ops plane's kSetSamplingRate verb); 0 disables.
  void set_sample_interval(std::uint32_t n) {
    interval_.store(n, std::memory_order_relaxed);
  }
  std::uint32_t sample_interval() const {
    return interval_.load(std::memory_order_relaxed);
  }

  // Merged view of every shard's ring, sorted by (at, packet_id) so the
  // result is independent of shard count. Quiesced readers only.
  std::vector<FlightSample> samples() const;

  // Chrome trace_event JSON: one "i" instant per sample on a per-flow
  // track, args carrying src/dst/bytes and the resolved hop names.
  std::string trace_json() const;

  struct Stats {
    std::uint64_t packets_seen = 0;
    std::uint64_t packets_sampled = 0;
    std::uint64_t packets_admitted = 0;
    std::uint64_t packets_rejected = 0;  // reservoir-declined
  };
  Stats stats() const;  // quiesced readers only

  void clear();  // drops samples and flow state, keeps the countdowns

 private:
  struct DirState {
    std::uint64_t packets = 0;
    std::uint64_t sampled = 0;
    // Packets left until the next sample; reloaded from the atomic interval
    // when it expires, so the hot path is a decrement + compare with no
    // division. 0 = not yet initialised for this direction.
    std::uint32_t until_next = 0;
    Rng rng;
  };
  struct LinkState {
    const Node* end_a = nullptr;
    DirState dir[2];  // [0] = end_a -> end_b, [1] = the reverse
  };
  struct FlowSlot {
    std::uint64_t flow = 0;
    std::uint64_t seen = 0;
  };
  struct ShardState {
    std::vector<FlightSample> ring;
    std::size_t wr = 0;  // next overwrite position once the ring is full
    std::vector<FlowSlot> flows;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
  };

  // A sampled packet's per-flow admission and ring write, off the tap's
  // countdown path.
  void sample(const Packet& p, SimTime at, Rng& rng);

  FlightRecorderConfig cfg_;
  std::atomic<std::uint32_t> interval_;
  const NameTable* names_ = nullptr;
  // deque: stable addresses for the tap closures.
  std::deque<LinkState> links_;
  std::vector<std::unique_ptr<ShardState>> shards_;
};

}  // namespace pvn

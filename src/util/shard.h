// Sharded parallel event kernel: N independent Simulators advanced together
// under conservative-lookahead synchronization.
//
// Model (classic conservative PDES):
//   * Every shard owns a Simulator; all state touched by a shard's events
//     belongs to that shard (netsim Nodes carry a shard index).
//   * The only cross-shard interaction is post(): schedule an event on
//     another shard at a future timestamp. Posts made during a parallel
//     window land in a per-source mailbox and are drained at the next
//     barrier; posts made outside a window schedule directly.
//   * lookahead L = the minimum latency of any cross-shard link. A window
//     [T, T+L) — T the globally earliest pending event — can run on every
//     shard in parallel: any event executing in the window can only post at
//     >= its own time + L >= T + L, i.e. beyond the horizon, so no shard can
//     receive work inside the window it is executing.
//
// Determinism contract: event order inside a shard is the Simulator's
// (when, schedule order) order. Mailbox drains sort by (when, source shard,
// per-source post sequence) before scheduling on the target shards, so the
// interleaving of cross-shard arrivals is a pure function of simulation
// state — never of thread scheduling. An N-shard run is therefore
// bit-identical to the same topology run with 1 shard (the windows change,
// the event order per shard does not). shard_count()==1 never spawns threads
// and is exactly the legacy single-Simulator execution.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/sim.h"
#include "util/time.h"

namespace pvn {

class ShardGroup {
 public:
  // `shards` Simulators; `lookahead` must be <= the minimum cross-shard link
  // latency in the topology (asserted by callers that know their links).
  explicit ShardGroup(std::size_t shards = 1,
                      SimDuration lookahead = milliseconds(1));
  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;
  ~ShardGroup();

  std::size_t shard_count() const { return sims_.size(); }
  Simulator& shard(std::size_t i) { return *sims_[i]; }
  const Simulator& shard(std::size_t i) const { return *sims_[i]; }
  SimDuration lookahead() const { return lookahead_; }
  // Adjustable until the first parallel window runs (topology construction
  // computes the real minimum cross-shard latency).
  void set_lookahead(SimDuration l) { lookahead_ = l; }

  // Schedules `fn` on shard `dst` at absolute time `when`. Callable from a
  // shard worker mid-window (goes through the mailbox; `when` must be >= the
  // current window horizon, guaranteed when when >= now + lookahead) or from
  // outside a window (schedules directly). `src_hint` orders same-timestamp
  // posts from different shards deterministically.
  void post(std::size_t dst, SimTime when, SimCategory cat, EventFn fn);

  // Runs all shards until every queue drains (or `deadline` passes).
  // Single-shard groups run inline on the calling thread; larger groups use
  // one persistent worker thread per shard. Returns total events executed.
  std::size_t run_parallel() {
    return run_parallel_until(std::numeric_limits<SimTime>::max());
  }
  std::size_t run_parallel_until(SimTime deadline);

  // Shard index of the calling thread during a parallel window; 0 otherwise.
  static std::size_t current_shard();

  // --- time barriers (consistent cross-shard snapshots) -------------------
  //
  // at_time_barrier(T, fn) runs `fn` on the coordinator thread at the first
  // inter-window point where every event with timestamp < T has executed on
  // every shard and no shard has executed an event at >= T (window horizons
  // are clamped so no window ever straddles a pending barrier). At that
  // point the workers are quiesced behind the window barrier, so `fn` may
  // read any shard's state — telemetry cells, node counters — and sees a
  // globally consistent cut that is bit-identical across shard counts.
  //
  // Invariants, mirroring post(): a registration made mid-window (from an
  // event handler) must satisfy T >= now + lookahead. Callbacks at equal T
  // fire in (registering shard, per-shard registration order) — a pure
  // function of simulation state. A barrier past the run's deadline stays
  // pending for the next run_parallel_until call.
  //
  // Callers that drive the group through run_parallel_until see barriers
  // honored even at shard_count()==1; enable_time_barriers() must be on
  // before the run starts (registration enables it, but a run already inside
  // its legacy single-shard fast path cannot be interrupted retroactively).
  void at_time_barrier(SimTime when, std::function<void()> fn);
  // Opts single-shard runs into the windowed execution path so mid-run
  // barrier registrations take effect. Idempotent; sticky.
  void enable_time_barriers() {
    barriers_enabled_.store(true, std::memory_order_relaxed);
  }
  bool time_barriers_enabled() const {
    return barriers_enabled_.load(std::memory_order_relaxed);
  }
  std::size_t pending_barriers() const;
  std::uint64_t barriers_fired() const { return barriers_fired_; }

 private:
  friend struct ShardGroupTls;
  struct Mail {
    SimTime when;
    std::uint64_t src_seq;  // per-source post order within the window
    std::uint32_t src;
    std::uint32_t dst;
    SimCategory cat;
    EventFn fn;
  };
  struct Outbox {
    std::vector<Mail> mail;
    std::uint64_t next_seq = 0;
    // Horizon of the window this shard is currently executing; posts must
    // land at or past it (lookahead invariant). Written and read only by the
    // owning worker thread.
    SimTime window_horizon = 0;
  };

  struct TimeBarrier {
    SimTime when;
    std::uint32_t src;       // registering shard
    std::uint64_t src_seq;   // per-shard registration order
    std::function<void()> fn;
  };

  void worker_main(std::size_t idx);
  void run_shard_window(std::size_t idx, SimTime horizon);
  void drain_mailboxes();
  void start_workers();
  // Fires every pending barrier whose time is <= limit, in deterministic
  // (when, src, src_seq) order. `limit` is the earliest pending event time
  // (all earlier events are done), clamped to deadline + 1.
  void fire_due_barriers(SimTime limit);
  // Earliest pending barrier time, or kNoPendingEvent.
  SimTime next_barrier_time() const;
  std::size_t run_single_windowed(SimTime deadline);

  SimDuration lookahead_;
  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<Outbox> outboxes_;  // one per shard, owned by its worker

  // Window barrier. Shared state below mu_; workers wait for a new round,
  // the coordinator waits for all workers to finish the round.
  std::mutex mu_;
  std::condition_variable cv_round_;
  std::condition_variable cv_done_;
  std::uint64_t round_ = 0;
  SimTime horizon_ = 0;
  std::size_t workers_running_ = 0;
  bool stop_ = false;
  std::vector<std::size_t> window_executed_;
  std::vector<std::thread> threads_;
  bool threads_started_ = false;

  // Time barriers. Registration can come from any shard mid-window, so the
  // list lives behind its own mutex; callbacks always run on the coordinator
  // thread between windows. The enabled flag keeps the barrier-free hot path
  // at one relaxed load per window (and keeps single-shard runs on the
  // legacy no-window fast path).
  mutable std::mutex barrier_mu_;
  std::vector<TimeBarrier> barriers_;
  std::vector<std::uint64_t> barrier_seq_;  // per-shard registration counters
  std::atomic<bool> barriers_enabled_{false};
  std::uint64_t barriers_fired_ = 0;
};

}  // namespace pvn

// Discrete-event simulation kernel.
//
// A Simulator owns the virtual clock and a monotone radix-heap event queue.
// Every component in the repository (links, TCP endpoints, middlebox hosts,
// protocol state machines) schedules work through one shared Simulator, which
// makes whole-network runs single-threaded and deterministic.
//
// Hot-path design (see DESIGN.md "Hot paths and performance model"):
//   * Callbacks are stored in EventFn, a move-only callable with a 136-byte
//     inline buffer, so capture-light lambdas (including ones carrying a
//     whole Packet) never touch the heap per event.
//   * Events live in generation-tagged slots; the queue holds (when, slot)
//     entries only, at most one per slot. cancel() is O(1): it disarms the
//     slot and frees the callback immediately, so cancelled state never
//     accumulates across long runs (the entry is reclaimed lazily when the
//     queue passes it, and a compaction pass bounds dead entries under
//     mass-cancel churn).
//   * The queue is a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, J. ACM
//     1990). Simulated time never runs backwards, so every queued key is at
//     or after `last_`, the time of the last event popped. Bucket b >= 1
//     holds the keys whose highest bit differing from `last_` is bit b-1;
//     bucket 0 holds the keys equal to `last_` and is read front to back.
//     When bucket 0 runs dry, the lowest non-empty bucket is redistributed
//     around its earliest live key, so pops read memory in order instead of
//     sifting a binary heap.
//   * Tie-break contract: same-time events run in schedule order. Pushes
//     append and a bucket is refilled only while empty, so every bucket
//     stays in schedule order without a sequence number. schedule_at() with
//     `when` in the past clamps to now() and therefore runs *after* every
//     event already queued at now() — a late event never jumps the queue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/time.h"

namespace pvn {

// Handle used to cancel a scheduled event. Encodes (generation << 32 | slot);
// stale handles (already fired or cancelled) are recognized by a generation
// mismatch and ignored.
using EventId = std::uint64_t;
constexpr EventId kInvalidEventId = 0;

// Callback category for the simulator profiler. Scheduling call sites tag
// their events (defaulting to kOther); the run loop attributes event counts
// (always) and wall-clock time (when profiling is enabled) per category, so
// benches can report where simulated *and* real time goes.
enum class SimCategory : std::uint8_t {
  kOther = 0,
  kLink,        // per-hop delivery / queue drain (netsim/link.cc)
  kSwitch,      // unscheduled since the switch lost its pipeline latency;
                // pvnbench still prints its (zero) row
  kMbox,        // chain continuations, instantiation (mbox/)
  kPvnControl,  // discovery/deploy/lease timers (pvn/)
  kTunnel,      // tunnel endpoints (tunnel/)
  kProto,       // protocol timers (proto/)
  kFault,       // injected faults (netsim/faults.cc)
  kWorkload,    // traffic generators (workload/)
};
constexpr std::size_t kSimCategoryCount =
    static_cast<std::size_t>(SimCategory::kWorkload) + 1;
const char* to_string(SimCategory c);

// Per-category event counts and wall-clock attribution. Event counts are
// always maintained (one array increment per event); wall_ns is only
// populated while profiling is enabled (two steady_clock reads per event).
struct SimProfile {
  struct Entry {
    std::uint64_t events = 0;
    std::uint64_t wall_ns = 0;
  };
  Entry by_category[kSimCategoryCount];

  Entry& operator[](SimCategory c) {
    return by_category[static_cast<std::size_t>(c)];
  }
  const Entry& operator[](SimCategory c) const {
    return by_category[static_cast<std::size_t>(c)];
  }
  std::uint64_t total_events() const {
    std::uint64_t n = 0;
    for (const Entry& e : by_category) n += e.events;
    return n;
  }
  std::uint64_t total_wall_ns() const {
    std::uint64_t n = 0;
    for (const Entry& e : by_category) n += e.wall_ns;
    return n;
  }
};

// Move-only type-erased void() callable with a small-buffer-optimized store.
// Callables up to kInlineSize bytes (and max_align_t alignment) are stored
// inline; larger ones fall back to a heap allocation.
class EventFn {
 public:
  // The smallest size that holds the two per-packet callbacks, each
  // static_assert'ed where it is built: link delivery (a Packet plus the
  // link's pointers) and the switch's deferred middlebox continuation (a
  // Packet, the action tail and the ingress port, 136 B on LP64).
  static constexpr std::size_t kInlineSize = 136;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& fn) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineSize &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      heap_ = new D(std::forward<F>(fn));
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  bool inlined() const { return ops_ != nullptr && heap_ == nullptr; }

  void operator()() { ops_->invoke(target()); }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(target());
      ops_ = nullptr;
      heap_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-constructs the callable into `dst` and destroys the source
    // (inline storage only; heap callables move by pointer steal).
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* p) { (*static_cast<D*>(p))(); },
      [](void* dst, void* src) {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* p) { static_cast<D*>(p)->~D(); },
  };
  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* p) { (*static_cast<D*>(p))(); },
      nullptr,
      [](void* p) { delete static_cast<D*>(p); },
  };

  void* target() { return heap_ != nullptr ? heap_ : static_cast<void*>(buf_); }

  void move_from(EventFn& other) noexcept {
    ops_ = other.ops_;
    heap_ = other.heap_;
    if (ops_ != nullptr && other.heap_ == nullptr) {
      ops_->relocate(buf_, other.buf_);
    }
    other.ops_ = nullptr;
    other.heap_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  void* heap_ = nullptr;
  const Ops* ops_ = nullptr;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` to run at absolute time `when` (clamped to now()).
  template <typename F>
  EventId schedule_at(SimTime when, F&& fn) {
    return schedule_fn(when, EventFn(std::forward<F>(fn)), SimCategory::kOther);
  }
  template <typename F>
  EventId schedule_at(SimTime when, SimCategory cat, F&& fn) {
    return schedule_fn(when, EventFn(std::forward<F>(fn)), cat);
  }

  // Schedules `fn` to run `delay` nanoseconds from now.
  template <typename F>
  EventId schedule_after(SimDuration delay, F&& fn) {
    return schedule_fn(now_ + (delay < 0 ? 0 : delay),
                       EventFn(std::forward<F>(fn)), SimCategory::kOther);
  }
  template <typename F>
  EventId schedule_after(SimDuration delay, SimCategory cat, F&& fn) {
    return schedule_fn(now_ + (delay < 0 ? 0 : delay),
                       EventFn(std::forward<F>(fn)), cat);
  }

  // Cancels a pending event in O(1). Safe to call with kInvalidEventId or an
  // already-fired/cancelled event id (both are no-ops).
  void cancel(EventId id);

  // Runs every event with when <= deadline, including ones scheduled along
  // the way. If no live event remains afterwards, the clock lands on
  // `deadline` (cancelled entries do not count); otherwise it stays at the
  // last executed event. Returns the number of events executed.
  std::size_t run_until(SimTime deadline);

  // Runs until the event queue is empty.
  std::size_t run();

  // Executes at most one event; returns false if the queue is empty.
  bool step();

  std::size_t pending_events() const { return live_; }
  // Queue entries currently held: live events plus cancelled entries not
  // yet reclaimed. Compaction keeps this O(pending_events()); exposed so the
  // mass-cancel churn regression can assert the bound.
  std::size_t heap_size() const { return queued_; }

  // --- profiler (see SimProfile above) -----------------------------------
  // Per-category event counts are always collected; wall-clock attribution
  // (two steady_clock reads per event) only while enabled.
  void enable_profiling(bool on) { profiling_ = on; }
  bool profiling_enabled() const { return profiling_; }
  const SimProfile& profile() const { return profile_; }
  void reset_profile() { profile_ = SimProfile{}; }

 private:
  // A queued event. The callback lives in its slot until fired or
  // cancelled; a slot is recycled only once its one entry has left the
  // queue, so `armed` alone tells a live entry from a cancelled one.
  struct QueueEntry {
    SimTime when;
    std::uint32_t slot;
  };
  struct Slot {
    std::uint32_t gen = 1;
    bool armed = false;
    SimCategory cat = SimCategory::kOther;
    EventFn fn;
  };
  // Bucket 0 plus one bucket per bit of a key.
  static constexpr int kBuckets = 65;

  EventId schedule_fn(SimTime when, EventFn fn, SimCategory cat);
  // Appends an entry to the bucket of its key relative to last_.
  void place(const QueueEntry& e);
  // Pops the earliest live event with when <= deadline (reclaiming any
  // cancelled entries it passes). Returns false if there is none.
  bool pop_one_until(SimTime deadline, SimTime& when_out, EventFn& fn_out,
                     SimCategory& cat_out);
  // Finds the lowest non-empty bucket b >= 1 and its earliest live key,
  // dropping the cancelled entries of every bucket it reads. Returns false
  // when no live entry is left outside bucket 0.
  bool lowest_live(int& bucket, SimTime& earliest);
  // Drops the cancelled entries of bucket `b` (from `from` on), keeping the
  // rest in order. Returns how many remain.
  std::size_t sweep(int b, std::size_t from);
  // Recycles the slot of an entry that left the queue: its id goes stale.
  void release(std::uint32_t slot);
  // Drops every cancelled entry. Execution order is unaffected: buckets
  // keep their order and an entry's bucket depends only on its key.
  void compact_queue();
  // Runs a popped event, charging the profiler.
  void dispatch(EventFn& fn, SimCategory cat);

  SimTime now_ = 0;
  // Radix base: the time of the last event popped. Invariant: last_ <=
  // now_ and last_ <= every queued key. It moves only to the time of a live
  // event about to run, never from a cancelled entry or a peek.
  SimTime last_ = 0;
  std::vector<QueueEntry> buckets_[kBuckets];
  std::size_t head_ = 0;        // next unread entry of buckets_[0]
  std::uint64_t nonempty_ = 0;  // bit b-1 set iff buckets_[b] has entries
  std::size_t queued_ = 0;      // entries not yet popped, live or cancelled
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  bool profiling_ = false;
  SimProfile profile_;
};

}  // namespace pvn

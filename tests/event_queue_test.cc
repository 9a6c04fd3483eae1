// Tests of the simulator's event queue and run loop.
//
// The differential test runs seeded random sequences of kernel calls
// against Simulator and against a reference model, and every observable
// result must agree: the firing order, every return value, and now() and
// pending_events() after every call. The reference model is the binary-heap
// queue the radix heap replaced: a min-heap of (when, seq) entries over
// generation-tagged slots, lazy cancellation with the same compaction
// trigger, and run_until's clock rule (land on the deadline when no live
// event remains).
//
// The unit tests below it pin the heap bound under mass-cancel churn, the
// same-time tie-break contract and run_until's clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/sim.h"

namespace pvn {
namespace {

class RefSimulator {
 public:
  SimTime now() const { return now_; }
  std::size_t pending_events() const { return live_; }

  EventId schedule_at(SimTime when, std::function<void()> fn) {
    if (when < now_) when = now_;
    std::uint32_t slot = 0;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    s.armed = true;
    heap_.push_back(Entry{when, next_seq_++, slot, s.gen});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++live_;
    return (static_cast<EventId>(s.gen) << 32) | slot;
  }

  void cancel(EventId id) {
    if (id == kInvalidEventId) return;
    const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
    if (slot >= slots_.size()) return;
    Slot& s = slots_[slot];
    if (!s.armed || s.gen != static_cast<std::uint32_t>(id >> 32)) return;
    s.armed = false;
    s.fn = nullptr;
    --live_;
    if (heap_.size() >= 64 && heap_.size() > 2 * live_) compact();
  }

  std::size_t run_until(SimTime deadline) {
    std::size_t executed = 0;
    std::function<void()> fn;
    SimTime when = 0;
    while (pop(deadline, when, fn)) {
      now_ = when;
      fn();
      ++executed;
    }
    if (now_ < deadline && live_ == 0) now_ = deadline;
    return executed;
  }

  bool step() {
    std::function<void()> fn;
    SimTime when = 0;
    if (!pop(std::numeric_limits<SimTime>::max(), when, fn)) return false;
    now_ = when;
    fn();
    return true;
  }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Slot {
    std::uint32_t gen = 1;
    bool armed = false;
    std::function<void()> fn;
  };
  // std::push_heap builds a max-heap, so later entries compare greater.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  // Recycles the slot of a cancelled entry leaving the heap.
  void retire(const Entry& e) {
    Slot& s = slots_[e.slot];
    if (s.gen != e.gen) return;
    ++s.gen;
    s.fn = nullptr;
    free_slots_.push_back(e.slot);
  }

  bool pop(SimTime deadline, SimTime& when, std::function<void()>& fn) {
    while (!heap_.empty() && heap_.front().when <= deadline) {
      const Entry top = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
      Slot& s = slots_[top.slot];
      if (s.armed && s.gen == top.gen) {
        fn = std::move(s.fn);
        s.fn = nullptr;
        s.armed = false;
        ++s.gen;
        free_slots_.push_back(top.slot);
        --live_;
        when = top.when;
        return true;
      }
      retire(top);
    }
    return false;
  }

  void compact() {
    std::size_t kept = 0;
    for (const Entry& e : heap_) {
      const Slot& s = slots_[e.slot];
      if (s.armed && s.gen == e.gen) {
        heap_[kept++] = e;
      } else {
        retire(e);
      }
    }
    heap_.resize(kept);
    std::make_heap(heap_.begin(), heap_.end(), Later{});
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
};

// Event times that exercise the queue's edges: the past (clamped to now),
// now itself, near ties, bit boundaries and the far future.
SimTime pick_time(Rng& r, SimTime now) {
  const std::uint64_t kind = r.next_below(100);
  if (kind < 12) return now - static_cast<SimTime>(r.next_below(50));
  if (kind < 30) return now;
  if (kind < 60) return now + 1 + static_cast<SimTime>(r.next_below(16));
  if (kind < 80) return now + static_cast<SimTime>(r.next_below(5000));
  if (kind < 90) {
    // A power of two just below, at or after now's next boundary.
    const SimTime p = SimTime{1} << r.next_below(40);
    return (now | (p - 1)) + static_cast<SimTime>(r.next_below(3));
  }
  return now + static_cast<SimTime>(r.next_below(std::uint64_t{1} << 40));
}

// Drives one kernel. Events are numbered in schedule order; each firing
// logs (number, now) and then, from a seed fixed when it was scheduled,
// schedules up to two more events and may cancel any earlier one.
template <typename Sim>
struct Harness {
  static constexpr std::size_t kMaxEvents = 20000;

  Harness() = default;
  Harness(const Harness&) = delete;  // callbacks hold `this`
  Harness& operator=(const Harness&) = delete;

  Sim sim;
  std::vector<EventId> ids;
  std::vector<std::pair<std::size_t, SimTime>> log;

  void schedule(SimTime when, std::uint64_t seed) {
    const std::size_t n = ids.size();
    ids.push_back(kInvalidEventId);
    ids[n] = sim.schedule_at(when, [this, n, seed] { fire(n, seed); });
  }

  void cancel(std::size_t n) {
    sim.cancel(n < ids.size() ? ids[n] : kInvalidEventId);
  }

  void fire(std::size_t n, std::uint64_t seed) {
    log.emplace_back(n, sim.now());
    Rng r(seed);
    const std::uint64_t roll = r.next_below(100);
    const int children = roll < 45 ? 0 : roll < 80 ? 1 : 2;
    for (int i = 0; i < children && ids.size() < kMaxEvents; ++i) {
      const SimTime when = pick_time(r, sim.now());
      schedule(when, r.next_u64());
    }
    if (r.next_below(100) < 30) cancel(r.next_below(ids.size()));
  }
};

void run_differential(std::uint64_t seed, int ops) {
  Harness<Simulator> got;
  Harness<RefSimulator> want;
  Rng r(seed);
  std::size_t checked = 0;
  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << " op " << op);
    const std::uint64_t kind = r.next_below(100);
    const SimTime t = pick_time(r, want.sim.now());
    if (kind < 35) {
      const std::uint64_t event_seed = r.next_u64();
      got.schedule(t, event_seed);
      want.schedule(t, event_seed);
    } else if (kind < 55) {
      // One past the end names no event: kInvalidEventId.
      const std::size_t n = r.next_below(want.ids.size() + 1);
      got.cancel(n);
      want.cancel(n);
      ASSERT_LE(got.sim.heap_size(), 2 * got.sim.pending_events() + 64);
    } else if (kind < 80) {
      ASSERT_EQ(got.sim.run_until(t), want.sim.run_until(t));
    } else {
      ASSERT_EQ(got.sim.step(), want.sim.step());
    }
    ASSERT_EQ(got.sim.now(), want.sim.now());
    ASSERT_EQ(got.sim.pending_events(), want.sim.pending_events());
    ASSERT_EQ(got.ids.size(), want.ids.size());
    ASSERT_EQ(got.log.size(), want.log.size());
    for (; checked < want.log.size(); ++checked) {
      ASSERT_EQ(got.log[checked], want.log[checked]) << "firing " << checked;
    }
  }
  // Drain both and compare the tail.
  while (want.sim.step()) ASSERT_TRUE(got.sim.step());
  ASSERT_FALSE(got.sim.step());
  ASSERT_EQ(got.log, want.log);
  ASSERT_EQ(got.sim.now(), want.sim.now());
  EXPECT_EQ(got.sim.heap_size(), 0u);
}

TEST(EventQueueDifferential, MatchesBinaryHeapReference) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    run_differential(seed, 2000);
    if (HasFatalFailure()) return;
  }
}


// --- mass-cancel churn (lease-style timer workloads) -----------------------

TEST(SimulatorChurn, MassCancelKeepsHeapBounded) {
  Simulator sim;
  // A rotating set of armed timers, like lease renewals that are cancelled
  // and re-armed on every heartbeat. One million churn iterations used to
  // leave one dead heap entry each; compaction must keep the heap
  // proportional to the live set.
  constexpr std::size_t kLive = 512;
  constexpr std::size_t kChurn = 1'000'000;
  std::vector<EventId> ids(kLive, kInvalidEventId);
  for (std::size_t i = 0; i < kLive; ++i) {
    ids[i] = sim.schedule_at(static_cast<SimTime>(1'000'000 + i), [] {});
  }
  for (std::size_t i = 0; i < kChurn; ++i) {
    const std::size_t slot = i % kLive;
    sim.cancel(ids[slot]);
    ids[slot] =
        sim.schedule_at(static_cast<SimTime>(1'000'000 + i % 4096), [] {});
    ASSERT_EQ(sim.pending_events(), kLive);  // exact, not approximate
    // Compaction bound: at most 2x live entries (+ the small floor below
    // which compaction never bothers to run).
    ASSERT_LE(sim.heap_size(), 2 * kLive + 64);
  }
  EXPECT_EQ(sim.pending_events(), kLive);
  std::size_t fired = sim.run();
  EXPECT_EQ(fired, kLive);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.heap_size(), 0u);
}

TEST(SimulatorChurn, CancelAllDrainsHeap) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 10'000; ++i) {
    ids.push_back(sim.schedule_at(100 + i, [] {}));
  }
  for (const EventId id : ids) sim.cancel(id);
  EXPECT_EQ(sim.pending_events(), 0u);
  // Compaction triggers on the way down; the heap must not retain ~10k
  // corpses until the next run().
  EXPECT_LE(sim.heap_size(), 64u);
  EXPECT_EQ(sim.run(), 0u);
}

// --- tie-break contract ----------------------------------------------------

TEST(SimulatorTieBreak, SameTimeEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(10, [&] { order.push_back(2); });
  sim.schedule_at(5, [&] { order.push_back(0); });
  sim.schedule_at(10, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimulatorTieBreak, ScheduleAtInPastClampsAndNeverJumpsTheQueue) {
  Simulator sim;
  std::vector<int> order;
  // Event A (t=10) schedules X at t=5 — in the past. X must clamp to now()
  // and run AFTER B, which was already queued at t=10 before A executed.
  sim.schedule_at(10, [&] {
    order.push_back(1);
    sim.schedule_at(5, [&] {
      order.push_back(3);
      EXPECT_EQ(sim.now(), 10);  // clamped, the clock never rewinds
    });
  });
  sim.schedule_at(10, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 10);
}

// Scheduling from outside the run loop after run_until stopped short of a
// cancelled entry and a later live event: the new events may land anywhere
// from now() up, below both, and must still run in time order.
TEST(SimulatorClock, ScheduleAfterRunUntilRunsBelowLaterEvents) {
  Simulator sim;
  std::vector<std::pair<SimTime, char>> log;
  const auto mark = [&](char c) {
    return [&log, &sim, c] { log.emplace_back(sim.now(), c); };
  };
  sim.schedule_at(5, mark('A'));
  sim.cancel(sim.schedule_at(20, mark('B')));
  sim.schedule_at(40, mark('C'));
  EXPECT_EQ(sim.run_until(10), 1u);
  EXPECT_EQ(sim.now(), 5);  // C is still live: the clock stays at A
  sim.schedule_at(30, mark('E'));
  sim.schedule_at(6, mark('D'));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::pair<SimTime, char>>{
                     {5, 'A'}, {6, 'D'}, {30, 'E'}, {40, 'C'}}));
}

// With nothing live left past the deadline, only a cancelled entry,
// run_until lands the clock on the deadline, and later schedules start
// from there.
TEST(SimulatorClock, RunUntilLandsOnDeadlineWhenOnlyCancelledEntriesRemain) {
  Simulator drained;
  std::vector<SimTime> ran;
  drained.schedule_at(5, [&] { ran.push_back(drained.now()); });
  drained.cancel(drained.schedule_at(20, [] {}));
  EXPECT_EQ(drained.run_until(10), 1u);
  EXPECT_EQ(drained.now(), 10);
  drained.schedule_at(12, [&] { ran.push_back(drained.now()); });
  drained.schedule_at(3, [&] { ran.push_back(drained.now()); });  // clamps
  drained.schedule_at(11, [&] { ran.push_back(drained.now()); });
  drained.run();
  EXPECT_EQ(ran, (std::vector<SimTime>{5, 10, 11, 12}));
}

}  // namespace
}  // namespace pvn

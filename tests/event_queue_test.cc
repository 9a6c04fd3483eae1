// Differential test of the simulator's event queue. Seeded random sequences
// of kernel calls run against Simulator and against a reference model, and
// every observable result must agree: the firing order, every return value,
// and now() and pending_events() after every call.
//
// The reference model is the binary-heap queue the radix heap replaced:
// a min-heap of (when, seq) entries over generation-tagged slots, lazy
// cancellation with the same compaction trigger, and run_until's clock rule
// (land on the deadline when no live event remains).
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
  static constexpr SimTime kNoPendingEvent = Simulator::kNoPendingEvent;

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

  SimTime next_event_time() {
    while (!heap_.empty()) {
      const Entry& top = heap_.front();
      Slot& s = slots_[top.slot];
      if (s.armed && s.gen == top.gen) return top.when;
      retire(top);
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
    return kNoPendingEvent;
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

  std::size_t run_window(SimTime end_exclusive) {
    if (end_exclusive <= now_) return 0;
    std::size_t executed = 0;
    std::function<void()> fn;
    SimTime when = 0;
    while (pop(end_exclusive - 1, when, fn)) {
      now_ = when;
      fn();
      ++executed;
    }
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

  void advance_to(SimTime t) {
    if (t > now_) now_ = t;
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
    } else if (kind < 67) {
      ASSERT_EQ(got.sim.run_until(t), want.sim.run_until(t));
    } else if (kind < 76) {
      ASSERT_EQ(got.sim.run_window(t), want.sim.run_window(t));
    } else if (kind < 85) {
      ASSERT_EQ(got.sim.next_event_time(), want.sim.next_event_time());
    } else if (kind < 94) {
      ASSERT_EQ(got.sim.step(), want.sim.step());
    } else {
      got.sim.advance_to(t);
      want.sim.advance_to(t);
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

}  // namespace
}  // namespace pvn

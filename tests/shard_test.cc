// Tests for the event-kernel plumbing PR 7 added for the sharded dataplane:
// heap compaction under mass-cancel churn, the same-time/late-event tie-break
// contract, the shard-window primitives (next_event_time / run_window), and
// the ShardGroup conservative-lookahead driver itself.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "util/shard.h"
#include "util/sim.h"

namespace pvn {
namespace {

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

// --- shard-window primitives ------------------------------------------------

TEST(SimulatorWindow, NextEventTimeSkipsCancelledEntries) {
  Simulator sim;
  const EventId early = sim.schedule_at(5, [] {});
  sim.schedule_at(9, [] {});
  EXPECT_EQ(sim.next_event_time(), 5);
  sim.cancel(early);
  EXPECT_EQ(sim.next_event_time(), 9);
  sim.run();
  EXPECT_EQ(sim.next_event_time(), Simulator::kNoPendingEvent);
}

TEST(SimulatorWindow, RunWindowExecutesStrictlyBeforeHorizon) {
  Simulator sim;
  std::vector<SimTime> ran;
  for (const SimTime t : {5, 10, 15}) {
    sim.schedule_at(t, [&ran, &sim] { ran.push_back(sim.now()); });
  }
  EXPECT_EQ(sim.run_window(10), 1u);  // t=10 is NOT inside [.., 10)
  EXPECT_EQ(ran, (std::vector<SimTime>{5}));
  EXPECT_EQ(sim.next_event_time(), 10);
  EXPECT_EQ(sim.run_window(16), 2u);
  EXPECT_EQ(ran, (std::vector<SimTime>{5, 10, 15}));
}

TEST(SimulatorWindow, RunWindowExecutesEventsScheduledMidWindow) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5, [&] {
    order.push_back(1);
    sim.schedule_at(7, [&] { order.push_back(2); });   // inside horizon
    sim.schedule_at(20, [&] { order.push_back(9); });  // beyond horizon
  });
  EXPECT_EQ(sim.run_window(10), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.pending_events(), 1u);
}

// --- ShardGroup -------------------------------------------------------------

TEST(ShardGroup, SingleShardMatchesLegacySimulator) {
  // The same event program through a bare Simulator and a 1-shard group must
  // produce the identical execution log (order and timestamps).
  const auto program = [](Simulator& sim, std::vector<std::pair<SimTime, int>>& log) {
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at((i * 7) % 40, [&log, &sim, i] {
        log.emplace_back(sim.now(), i);
        if (i % 5 == 0) {
          sim.schedule_after(3, [&log, &sim, i] {
            log.emplace_back(sim.now(), 1000 + i);
          });
        }
      });
    }
  };

  Simulator legacy;
  std::vector<std::pair<SimTime, int>> legacy_log;
  program(legacy, legacy_log);
  const std::size_t legacy_n = legacy.run();

  ShardGroup group(1);
  std::vector<std::pair<SimTime, int>> group_log;
  program(group.shard(0), group_log);
  const std::size_t group_n = group.run_parallel();

  EXPECT_EQ(legacy_n, group_n);
  EXPECT_EQ(legacy_log, group_log);
}

// A self-propagating cross-shard hop used by the determinism tests: each
// firing logs (time, id) on its shard's private log and forwards itself to
// the next shard at now + lookahead (the minimum legal cross-shard delay).
struct RingHop {
  ShardGroup* group;
  std::vector<std::vector<std::pair<SimTime, int>>>* logs;
  int remaining;
  int id;
  void operator()() const {
    const std::size_t s = ShardGroup::current_shard();
    Simulator& sim = group->shard(s);
    (*logs)[s].emplace_back(sim.now(), id);
    if (remaining > 0) {
      const std::size_t dst = (s + 1 + static_cast<std::size_t>(id)) %
                              group->shard_count();
      group->post(dst, sim.now() + group->lookahead(), SimCategory::kOther,
                  EventFn(RingHop{group, logs, remaining - 1, id}));
    }
  }
};

std::vector<std::vector<std::pair<SimTime, int>>> run_ring(std::size_t shards) {
  ShardGroup group(shards, /*lookahead=*/1000);
  std::vector<std::vector<std::pair<SimTime, int>>> logs(shards);
  // Several concurrent walkers with different strides and phases, seeded
  // from outside any window (direct scheduling path).
  for (int id = 0; id < 12; ++id) {
    group.post(static_cast<std::size_t>(id) % shards,
               /*when=*/static_cast<SimTime>(10 * id), SimCategory::kOther,
               EventFn(RingHop{&group, &logs, 40, id}));
  }
  const std::size_t executed = group.run_parallel();
  EXPECT_EQ(executed, 12u * 41u);
  return logs;
}

TEST(ShardGroup, CrossShardRunsAreDeterministic) {
  // Thread scheduling must never leak into event order: repeated runs of the
  // same multi-shard program produce bit-identical per-shard logs.
  const auto a = run_ring(4);
  const auto b = run_ring(4);
  const auto c = run_ring(4);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(ShardGroup, LookaheadWindowsPreserveTimestampOrderPerShard) {
  const auto logs = run_ring(3);
  for (const auto& log : logs) {
    for (std::size_t i = 1; i < log.size(); ++i) {
      EXPECT_LE(log[i - 1].first, log[i].first);
    }
  }
}

TEST(ShardGroup, PostOutsideWindowSchedulesDirectly) {
  ShardGroup group(2, /*lookahead=*/100);
  std::vector<int> hits;
  group.post(1, 50, SimCategory::kOther, EventFn([&hits] { hits.push_back(1); }));
  EXPECT_EQ(group.shard(1).pending_events(), 1u);
  group.run_parallel();
  EXPECT_EQ(hits, (std::vector<int>{1}));
}

TEST(ShardGroup, RunParallelUntilMirrorsRunUntilClockSemantics) {
  ShardGroup group(3, /*lookahead=*/10);
  int fired = 0;
  group.shard(0).schedule_at(5, [&] { ++fired; });
  group.shard(2).schedule_at(500, [&] { ++fired; });  // beyond the deadline
  group.run_parallel_until(100);
  EXPECT_EQ(fired, 1);
  // Same contract as Simulator::run_until: a drained shard's clock lands on
  // the deadline; a shard still holding future work keeps its last-event
  // clock (here: nothing executed on shard 2, so it stays at 0).
  EXPECT_EQ(group.shard(0).now(), 100);
  EXPECT_EQ(group.shard(1).now(), 100);
  EXPECT_EQ(group.shard(2).now(), 0);
  group.run_parallel();
  EXPECT_EQ(fired, 2);
}

// --- final clock -------------------------------------------------------------

// A at 5 runs; B at 20 is cancelled, so nothing live is left by the deadline
// and every run path lands the clock on it. A cancelled entry still queued
// past the deadline must not hold the clock back on any path.
TEST(ShardGroup, EveryRunPathLandsOnDeadlineWhenOnlyCancelledEntriesRemain) {
  const auto arm = [](Simulator& sim, int& fired) {
    sim.schedule_at(5, [&fired] { ++fired; });
    sim.cancel(sim.schedule_at(20, [&fired] { fired += 100; }));
  };

  Simulator plain;
  int plain_fired = 0;
  arm(plain, plain_fired);
  EXPECT_EQ(plain.run_until(10), 1u);
  EXPECT_EQ(plain_fired, 1);
  EXPECT_EQ(plain.now(), 10);

  ShardGroup legacy(1, /*lookahead=*/3);
  int legacy_fired = 0;
  arm(legacy.shard(0), legacy_fired);
  EXPECT_EQ(legacy.run_parallel_until(10), 1u);
  EXPECT_EQ(legacy_fired, 1);
  EXPECT_EQ(legacy.shard(0).now(), 10);

  ShardGroup windowed(1, /*lookahead=*/3);
  windowed.enable_time_barriers();
  int windowed_fired = 0;
  arm(windowed.shard(0), windowed_fired);
  EXPECT_EQ(windowed.run_parallel_until(10), 1u);
  EXPECT_EQ(windowed_fired, 1);
  EXPECT_EQ(windowed.shard(0).now(), 10);

  ShardGroup two(2, /*lookahead=*/3);
  int two_fired = 0;
  arm(two.shard(0), two_fired);
  EXPECT_EQ(two.run_parallel_until(10), 1u);
  EXPECT_EQ(two_fired, 1);
  EXPECT_EQ(two.shard(0).now(), 10);
  EXPECT_EQ(two.shard(1).now(), 10);
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
  EXPECT_EQ(sim.next_event_time(), 40);
  sim.schedule_at(30, mark('E'));
  sim.schedule_at(6, mark('D'));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::pair<SimTime, char>>{
                     {5, 'A'}, {6, 'D'}, {30, 'E'}, {40, 'C'}}));

  // Nothing live left: the clock lands on the deadline, and later
  // schedules start from there.
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

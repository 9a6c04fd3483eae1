#include "util/sim.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>

namespace pvn {

const char* to_string(SimCategory c) {
  switch (c) {
    case SimCategory::kOther: return "other";
    case SimCategory::kLink: return "link";
    case SimCategory::kSwitch: return "switch";
    case SimCategory::kMbox: return "mbox";
    case SimCategory::kPvnControl: return "pvn-control";
    case SimCategory::kTunnel: return "tunnel";
    case SimCategory::kProto: return "proto";
    case SimCategory::kFault: return "fault";
    case SimCategory::kWorkload: return "workload";
  }
  return "?";
}

namespace {

constexpr EventId make_event_id(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<EventId>(gen) << 32) | slot;
}
constexpr std::uint32_t event_slot(EventId id) {
  return static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
}
constexpr std::uint32_t event_gen(EventId id) {
  return static_cast<std::uint32_t>(id >> 32);
}

constexpr std::uint64_t bucket_bit(int b) {
  return std::uint64_t{1} << (b - 1);
}

}  // namespace

void Simulator::place(const QueueEntry& e) {
  // Keys are never negative (schedule_fn clamps to now_ >= 0), so the
  // unsigned XOR orders them exactly: 0 for a key equal to last_, else one
  // more than the highest differing bit.
  const int b = static_cast<int>(
      std::bit_width(static_cast<std::uint64_t>(e.when ^ last_)));
  buckets_[b].push_back(e);
  if (b != 0) nonempty_ |= bucket_bit(b);
}

EventId Simulator::schedule_fn(SimTime when, EventFn fn, SimCategory cat) {
  if (when < now_) when = now_;
  std::uint32_t slot;
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
  s.cat = cat;
  place(QueueEntry{when, slot});
  ++queued_;
  ++live_;
  return make_event_id(slot, s.gen);
}

void Simulator::cancel(EventId id) {
  if (id == kInvalidEventId) return;
  const std::uint32_t slot = event_slot(id);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (!s.armed || s.gen != event_gen(id)) return;  // already fired/cancelled
  s.armed = false;
  s.fn.reset();  // release captures now; the entry is reclaimed later
  --live_;
  // Mass-cancel churn guard: once dead entries outnumber live ones, sweep
  // them out. Each compaction is O(queue) but needs >= live_ fresh cancels
  // to re-trigger, so the amortized cost per cancel stays O(1) and
  // queued_ stays O(live_).
  if (queued_ >= 64 && queued_ > 2 * live_) compact_queue();
}

void Simulator::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;
  s.armed = false;
  s.fn.reset();
  free_slots_.push_back(slot);
}

std::size_t Simulator::sweep(int b, std::size_t from) {
  std::vector<QueueEntry>& q = buckets_[b];
  std::size_t kept = 0;
  for (std::size_t i = from; i < q.size(); ++i) {
    if (slots_[q[i].slot].armed) {
      q[kept++] = q[i];
    } else {
      release(q[i].slot);
    }
  }
  queued_ -= q.size() - from - kept;
  q.resize(kept);
  return kept;
}

void Simulator::compact_queue() {
  sweep(0, head_);
  head_ = 0;
  for (std::uint64_t bits = nonempty_; bits != 0; bits &= bits - 1) {
    const int b = std::countr_zero(bits) + 1;
    if (sweep(b, 0) == 0) nonempty_ &= ~bucket_bit(b);
  }
}

bool Simulator::lowest_live(int& bucket, SimTime& earliest) {
  while (nonempty_ != 0) {
    const int b = std::countr_zero(nonempty_) + 1;
    if (sweep(b, 0) == 0) {
      nonempty_ &= ~bucket_bit(b);
      continue;
    }
    SimTime m = buckets_[b].front().when;
    for (const QueueEntry& e : buckets_[b]) m = std::min(m, e.when);
    bucket = b;
    earliest = m;
    return true;
  }
  return false;
}

bool Simulator::pop_one_until(SimTime deadline, SimTime& when_out,
                              EventFn& fn_out, SimCategory& cat_out) {
  std::vector<QueueEntry>& ready = buckets_[0];
  for (;;) {
    if (head_ < ready.size() && last_ > deadline) return false;
    while (head_ < ready.size()) {
      const std::uint32_t slot = ready[head_++].slot;
      --queued_;
      Slot& s = slots_[slot];
      if (s.armed) {
        fn_out = std::move(s.fn);
        cat_out = s.cat;
        --live_;
        release(slot);
        when_out = last_;
        return true;
      }
      release(slot);
    }
    ready.clear();
    head_ = 0;
    // Bucket 0 is dry: rebase on the earliest live key of the lowest
    // bucket. Every entry there lands in a lower bucket, in order, and
    // those buckets are empty, so each bucket stays in schedule order.
    int b = 0;
    SimTime m = 0;
    if (!lowest_live(b, m) || m > deadline) return false;
    last_ = m;
    nonempty_ &= ~bucket_bit(b);
    std::vector<QueueEntry>& q = buckets_[b];
    for (const QueueEntry& e : q) place(e);
    q.clear();
  }
}

void Simulator::dispatch(EventFn& fn, SimCategory cat) {
  SimProfile::Entry& entry = profile_[cat];
  ++entry.events;
  if (profiling_) {
    // Wall-clock attribution is opt-in: the two clock reads dominate the
    // cost of a small event, so benches enable it only when asked.
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    entry.wall_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  } else {
    fn();
  }
}

bool Simulator::step() {
  SimTime when;
  EventFn fn;
  SimCategory cat = SimCategory::kOther;
  if (!pop_one_until(std::numeric_limits<SimTime>::max(), when, fn, cat)) {
    return false;
  }
  now_ = when;
  dispatch(fn, cat);
  return true;
}

std::size_t Simulator::run_until(SimTime deadline) {
  std::size_t executed = 0;
  SimTime when;
  EventFn fn;
  SimCategory cat = SimCategory::kOther;
  while (pop_one_until(deadline, when, fn, cat)) {
    now_ = when;
    dispatch(fn, cat);
    fn.reset();
    ++executed;
  }
  if (now_ < deadline && live_ == 0) now_ = deadline;
  return executed;
}

std::size_t Simulator::run() {
  std::size_t executed = 0;
  while (step()) ++executed;
  return executed;
}

}  // namespace pvn

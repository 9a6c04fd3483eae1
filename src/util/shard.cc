#include "util/shard.h"

#include <algorithm>
#include <cassert>

namespace pvn {

// Friend of ShardGroup: per-thread window context. The coordinator thread
// runs shard 0 inline, workers run shards 1..N-1; outside a window the
// outbox is null (posts then schedule directly on the target, which is
// single-threaded at that point).
struct ShardGroupTls {
  inline static thread_local std::size_t current_shard = 0;
  inline static thread_local ShardGroup::Outbox* outbox_ptr = nullptr;

  static void set(std::size_t shard, ShardGroup::Outbox* box) {
    current_shard = shard;
    outbox_ptr = box;
  }
  static std::size_t shard() { return current_shard; }
  static ShardGroup::Outbox* outbox() { return outbox_ptr; }
};

ShardGroup::ShardGroup(std::size_t shards, SimDuration lookahead)
    : lookahead_(lookahead <= 0 ? 1 : lookahead) {
  if (shards == 0) shards = 1;
  sims_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    sims_.push_back(std::make_unique<Simulator>());
  }
  outboxes_.resize(shards);
  window_executed_.assign(shards, 0);
  barrier_seq_.assign(shards, 0);
}

ShardGroup::~ShardGroup() {
  if (threads_started_) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_round_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
}

std::size_t ShardGroup::current_shard() { return ShardGroupTls::shard(); }

void ShardGroup::post(std::size_t dst, SimTime when, SimCategory cat,
                      EventFn fn) {
  assert(dst < sims_.size());
  Outbox* box = ShardGroupTls::outbox();
  if (box == nullptr) {
    // Outside a parallel window: the caller is the only thread touching the
    // simulators, schedule directly.
    sims_[dst]->schedule_at(when, cat, std::move(fn));
    return;
  }
  // Mid-window: the lookahead invariant requires the post to land at or past
  // the horizon; cross-shard links enforce this by charging >= lookahead of
  // latency before delivery.
  assert(when >= box->window_horizon);
  box->mail.push_back(Mail{when, box->next_seq++,
                           static_cast<std::uint32_t>(ShardGroupTls::shard()),
                           static_cast<std::uint32_t>(dst), cat,
                           std::move(fn)});
}

void ShardGroup::at_time_barrier(SimTime when, std::function<void()> fn) {
  enable_time_barriers();
  const auto src = static_cast<std::uint32_t>(ShardGroupTls::shard());
  std::lock_guard<std::mutex> lk(barrier_mu_);
  barriers_.push_back(TimeBarrier{when, src, barrier_seq_[src]++, std::move(fn)});
}

std::size_t ShardGroup::pending_barriers() const {
  std::lock_guard<std::mutex> lk(barrier_mu_);
  return barriers_.size();
}

SimTime ShardGroup::next_barrier_time() const {
  std::lock_guard<std::mutex> lk(barrier_mu_);
  SimTime t = Simulator::kNoPendingEvent;
  for (const TimeBarrier& b : barriers_) t = std::min(t, b.when);
  return t;
}

void ShardGroup::fire_due_barriers(SimTime limit) {
  // A barrier at T may fire once every event with timestamp < T has run;
  // the caller passes the earliest still-pending event time (clamped to its
  // deadline), so exactly the barriers at <= limit are safe. Loop because a
  // callback may register another barrier that is itself already due (only
  // possible from the coordinator outside a window, where no lookahead
  // constraint applies).
  for (;;) {
    std::vector<TimeBarrier> due;
    {
      std::lock_guard<std::mutex> lk(barrier_mu_);
      auto keep = barriers_.begin();
      for (auto it = barriers_.begin(); it != barriers_.end(); ++it) {
        if (it->when <= limit) {
          due.push_back(std::move(*it));
        } else {
          if (keep != it) *keep = std::move(*it);
          ++keep;
        }
      }
      barriers_.erase(keep, barriers_.end());
    }
    if (due.empty()) return;
    std::stable_sort(due.begin(), due.end(),
                     [](const TimeBarrier& a, const TimeBarrier& b) {
                       if (a.when != b.when) return a.when < b.when;
                       if (a.src != b.src) return a.src < b.src;
                       return a.src_seq < b.src_seq;
                     });
    for (TimeBarrier& b : due) {
      ++barriers_fired_;
      b.fn();
    }
  }
}

void ShardGroup::run_shard_window(std::size_t idx, SimTime horizon) {
  outboxes_[idx].window_horizon = horizon;
  ShardGroupTls::set(idx, &outboxes_[idx]);
  window_executed_[idx] = sims_[idx]->run_window(horizon);
  ShardGroupTls::set(0, nullptr);
}

void ShardGroup::worker_main(std::size_t idx) {
  std::uint64_t seen_round = 0;
  for (;;) {
    SimTime horizon;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_round_.wait(lk, [&] { return stop_ || round_ != seen_round; });
      if (stop_) return;
      seen_round = round_;
      horizon = horizon_;
    }
    run_shard_window(idx, horizon);
    {
      std::lock_guard<std::mutex> lk(mu_);
      --workers_running_;
    }
    cv_done_.notify_one();
  }
}

void ShardGroup::start_workers() {
  if (threads_started_ || sims_.size() <= 1) return;
  threads_started_ = true;
  threads_.reserve(sims_.size() - 1);
  for (std::size_t i = 1; i < sims_.size(); ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

void ShardGroup::drain_mailboxes() {
  // Deterministic merge: order by (when, source shard, per-source sequence),
  // then hand the events to the target shards in that order so the targets'
  // schedule order — and therefore same-timestamp FIFO order — is a pure
  // function of simulation state.
  std::vector<Mail> all;
  for (Outbox& box : outboxes_) {
    for (Mail& m : box.mail) all.push_back(std::move(m));
    box.mail.clear();
    box.next_seq = 0;
  }
  if (all.empty()) return;
  std::stable_sort(all.begin(), all.end(), [](const Mail& a, const Mail& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.src != b.src) return a.src < b.src;
    return a.src_seq < b.src_seq;
  });
  for (Mail& m : all) {
    sims_[m.dst]->schedule_at(m.when, m.cat, std::move(m.fn));
  }
}

std::size_t ShardGroup::run_single_windowed(SimTime deadline) {
  // Single-shard execution with time barriers: run in lookahead-sized
  // slices so a barrier registered mid-run (T >= now + lookahead, the same
  // invariant post() relies on) always lands beyond the slice being
  // executed and is honored at the next slice boundary. Event order and
  // final clocks are identical to the plain run_until fast path.
  Simulator& sim = *sims_[0];
  const SimTime dl1 = deadline == std::numeric_limits<SimTime>::max()
                          ? deadline
                          : deadline + 1;
  std::size_t executed = 0;
  for (;;) {
    SimTime t_min = sim.next_event_time();
    fire_due_barriers(std::min(t_min, dl1));
    t_min = sim.next_event_time();  // a callback may have scheduled work
    if (t_min == Simulator::kNoPendingEvent || t_min > deadline) break;
    SimTime horizon;  // exclusive slice end
    if (t_min > std::numeric_limits<SimTime>::max() - lookahead_) {
      horizon = std::numeric_limits<SimTime>::max();
    } else {
      horizon = t_min + lookahead_;
    }
    horizon = std::min(horizon, dl1);
    horizon = std::min(horizon, next_barrier_time());
    executed += sim.run_until(horizon - 1);
  }
  // Mirror run_until: a drained simulator's clock lands on the deadline.
  if (sim.next_event_time() == Simulator::kNoPendingEvent &&
      sim.now() < deadline) {
    sim.advance_to(deadline);
  }
  return executed;
}

std::size_t ShardGroup::run_parallel_until(SimTime deadline) {
  const std::size_t n = sims_.size();
  if (n == 1) {
    if (barriers_enabled_.load(std::memory_order_relaxed)) {
      return run_single_windowed(deadline);
    }
    // Exact legacy behavior: one simulator, one thread, no windows.
    return sims_[0]->run_until(deadline);
  }
  start_workers();
  const SimTime dl1 = deadline == std::numeric_limits<SimTime>::max()
                          ? deadline
                          : deadline + 1;
  std::size_t executed = 0;
  for (;;) {
    SimTime t_min = Simulator::kNoPendingEvent;
    for (auto& sim : sims_) t_min = std::min(t_min, sim->next_event_time());
    if (barriers_enabled_.load(std::memory_order_relaxed)) {
      // Fire every barrier whose time has been fully executed past. A
      // callback may schedule new work (moving t_min) or register another
      // barrier, so iterate to a fixed point.
      for (;;) {
        fire_due_barriers(std::min(t_min, dl1));
        SimTime t2 = Simulator::kNoPendingEvent;
        for (auto& sim : sims_) t2 = std::min(t2, sim->next_event_time());
        if (t2 == t_min) break;
        t_min = t2;
      }
    }
    if (t_min == Simulator::kNoPendingEvent || t_min > deadline) break;
    // Window [t_min, horizon): every event in it is safe on every shard.
    SimTime horizon;
    if (t_min > std::numeric_limits<SimTime>::max() - lookahead_) {
      horizon = std::numeric_limits<SimTime>::max();
    } else {
      horizon = t_min + lookahead_;
    }
    // Never run past the caller's deadline (deadline is inclusive) or
    // across a pending barrier (its snapshot must not see events >= T).
    horizon = std::min(horizon, dl1);
    if (barriers_enabled_.load(std::memory_order_relaxed)) {
      horizon = std::min(horizon, next_barrier_time());
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      horizon_ = horizon;
      workers_running_ = n - 1;
      ++round_;
    }
    cv_round_.notify_all();
    run_shard_window(0, horizon);  // coordinator doubles as shard 0
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_done_.wait(lk, [&] { return workers_running_ == 0; });
    }
    for (std::size_t e : window_executed_) executed += e;
    drain_mailboxes();
  }
  // Mirror run_until: a drained shard's clock lands on the deadline.
  if (deadline != std::numeric_limits<SimTime>::max()) {
    for (auto& sim : sims_) {
      if (sim->next_event_time() == Simulator::kNoPendingEvent) {
        sim->advance_to(deadline);
      }
    }
  }
  return executed;
}

}  // namespace pvn

// Control-plane span tracing.
//
// A Span is an RAII handle over a [start, end] interval in simulated time,
// keyed by a PVN session id (the device id of the PVNC being deployed).
// The control plane opens spans for discovery -> negotiation -> compile ->
// deploy -> lease lifecycle; point events (retransmissions, failovers,
// injected faults) are recorded as zero-duration instants.
//
// Records land in a fixed-capacity ring buffer (old records are overwritten,
// never reallocated), and telemetry/export.h renders them as Chrome
// trace_event JSON — load the file in chrome://tracing or Perfetto, one
// track per session id.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "telemetry/trace.h"
#include "util/hash.h"
#include "util/sim.h"
#include "util/time.h"

namespace pvn::telemetry {

struct SpanRecord {
  std::uint64_t seq = 0;  // monotonically increasing record number
  std::string name;       // e.g. "deploy"
  std::string category;   // taxonomy: "pvn", "fault", ...
  std::string session;    // PVN session id (device id); "" = global
  SimTime start = 0;
  SimTime end = -1;       // -1 while the span is open
  int depth = 0;          // nesting depth within the session at start time
  // Causal identity (telemetry/trace.h). Untraced spans keep all three at 0;
  // traced spans get span_id = seq + 1 (nonzero, unique, deterministic).
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
  std::string node;  // simulated node that recorded the span; "" = unknown
};

class Span;

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity = 4096);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // The process-wide recorder the control plane writes to.
  static SpanRecorder& global();

  // Spans are stamped from this clock. Components call this on construction
  // (idempotent); the last caller wins, which is what single-Network runs
  // want. Without a clock, records are stamped at t=0. The clock is only
  // dereferenced while recording, so it must outlive the spans it stamps —
  // after the simulator is gone, exporters read last_time() instead.
  void set_clock(const Simulator* sim) { clock_ = sim; }
  SimTime now() const { return clock_ != nullptr ? clock_->now() : 0; }
  // Newest timestamp ever recorded. Safe after the clock's Simulator has
  // been destroyed (the export-at-exit case), unlike now().
  SimTime last_time() const { return last_time_; }

  // Opens a span; it closes when the returned handle is destroyed (or
  // finish()ed). The handle stays valid even after the ring wraps past the
  // record: a wrapped-past span that is still open moves to a bounded side
  // list (so export emits it as an incomplete event instead of dropping it)
  // and a late finish() still closes it there.
  Span start(std::string_view name, std::string_view category,
             std::string_view session);

  // Traced variant: the span joins `parent`'s trace (or starts none when the
  // parent is invalid) and records the simulated node it ran on. The handle
  // exposes context() so callers can stamp outbound messages / child work.
  Span start(std::string_view name, std::string_view category,
             std::string_view session, const TraceContext& parent,
             std::string_view node);

  // Records a zero-duration point event.
  void instant(std::string_view name, std::string_view category,
               std::string_view session);
  void instant(std::string_view name, std::string_view category,
               std::string_view session, const TraceContext& parent,
               std::string_view node);

  // Allocates a fresh trace id for a new causal story (one deploy cycle,
  // migration, promotion). A plain counter: the simulation is deterministic,
  // so ids are reproducible run to run.
  TraceContext new_trace() { return TraceContext{++next_trace_id_, 0, 0}; }
  std::uint64_t traces_started() const { return next_trace_id_; }

  // Records sorted by seq, oldest first: spans evicted from the ring while
  // still open (end may remain -1), then the ring contents. At most
  // 2 * capacity() entries.
  std::vector<SpanRecord> records() const;
  std::size_t capacity() const { return ring_.size(); }
  std::uint64_t total_recorded() const { return next_seq_; }
  // Open spans the ring wrapped past, still retained on the side list.
  std::size_t evicted_open() const { return evicted_open_.size(); }
  void clear();

 private:
  friend class Span;
  SpanRecord& claim(std::string_view name, std::string_view category,
                    std::string_view session);
  void finish_span(std::uint64_t seq);

  const Simulator* clock_ = nullptr;
  SimTime last_time_ = 0;
  std::vector<SpanRecord> ring_;
  std::uint64_t next_seq_ = 0;  // == records ever claimed
  std::uint64_t next_trace_id_ = 0;
  // Open spans the ring wrapped past, in eviction (= seq) order. Bounded at
  // capacity(); beyond that the oldest really is lost (it is force-closed
  // for depth accounting and its late finish() is dropped).
  std::vector<SpanRecord> evicted_open_;
  // Open-span count per session, for depth stamping. A fleet has one
  // session per device, so this is a hash map; a session's entry exists
  // only while it has open spans.
  std::unordered_map<std::string, int, StringHash, StringEq> open_by_session_;
  int open_depth(std::string_view session) const;
  // Counts a span opening in `session`; returns its depth.
  int open_one(std::string_view session);
  void close_one(std::string_view session);
};

// Move-only RAII handle; default-constructed Spans are inert, so members
// can be declared up front and assigned when the phase actually begins.
class Span {
 public:
  Span() = default;
  Span(Span&& other) noexcept { move_from(other); }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      finish();
      move_from(other);
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { finish(); }

  bool active() const { return rec_ != nullptr; }

  // The context child activity (nested spans, outbound control messages)
  // should carry: this span's trace, caused by this span. Valid for a traced
  // span's whole lifetime, including after finish() — a reply sent after the
  // span closed still belongs to it causally.
  const TraceContext& context() const { return ctx_; }
  std::uint64_t span_id() const { return ctx_.parent_span; }
  std::uint64_t trace_id() const { return ctx_.trace_id; }

  // Closes the span at the recorder's current time. Idempotent.
  void finish() {
    if (rec_ != nullptr) {
      rec_->finish_span(seq_);
      rec_ = nullptr;
    }
  }

 private:
  friend class SpanRecorder;
  Span(SpanRecorder* rec, std::uint64_t seq) : rec_(rec), seq_(seq) {}
  Span(SpanRecorder* rec, std::uint64_t seq, const TraceContext& ctx)
      : rec_(rec), seq_(seq), ctx_(ctx) {}
  void move_from(Span& other) {
    rec_ = other.rec_;
    seq_ = other.seq_;
    ctx_ = other.ctx_;
    other.rec_ = nullptr;
  }

  SpanRecorder* rec_ = nullptr;
  std::uint64_t seq_ = 0;
  // context() for children: trace_id = the span's trace, parent_span = the
  // span's own id, seq = the span's causal hop + 1.
  TraceContext ctx_;
};

}  // namespace pvn::telemetry

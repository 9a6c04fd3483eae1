// Cross-node trace assembly.
//
// SpanRecorder rings hold flat per-node span records; the TraceAssembler
// joins them (add() one ring per recorder) and
// stitches records sharing a trace_id into per-trace causal trees via their
// span_id / parent_span links. Per trace it extracts:
//
//   * the critical path — a partition of the trace's whole interval where
//     each segment is attributed to the *causally deepest* span active at
//     that instant (ties: later start, then higher seq). The segment
//     durations therefore sum exactly to the trace's end-to-end duration,
//     which is what lets bench_e22_tracing cross-check critical-path sums
//     against independently measured deploy/migration wall times.
//
//   * a cross-node Chrome trace — one track (pid) per simulated node, spans
//     as "X" events, and "s"/"f" flow arrows wherever causality crosses
//     nodes (client -> server -> standby), so chrome://tracing / Perfetto
//     renders the hop structure.
//
// Everything is derived from simulation state only (no wall clock, no
// iteration over unordered containers), so two runs of the same scenario
// assemble byte-identical traces.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/span.h"

namespace pvn::telemetry {

// One critical-path segment: [start, end) of the trace interval attributed
// to the deepest active span.
struct CriticalSegment {
  std::uint64_t span_id = 0;
  std::string name;
  std::string node;
  SimTime start = 0;
  SimTime end = 0;
};

struct AssembledTrace {
  std::uint64_t trace_id = 0;
  std::string session;
  SimTime start = 0;  // min span start
  SimTime end = 0;    // max span end (open spans clamp to this)
  // All records of the trace, sorted by (start, seq) — the stitched tree.
  std::vector<SpanRecord> spans;
  // Deepest-active partition of [start, end]; segments are contiguous.
  std::vector<CriticalSegment> critical;

  // Sum of critical segment durations == end - start by construction.
  SimDuration critical_total() const {
    SimDuration d = 0;
    for (const CriticalSegment& s : critical) d += s.end - s.start;
    return d;
  }
  // Name of the trace's root span ("deploy_cycle", ...); "" if none closed.
  std::string root_name() const;
};

class TraceAssembler {
 public:
  TraceAssembler() = default;
  explicit TraceAssembler(const SpanRecorder& rec) { add(rec.records()); }

  // Joins one node's / recorder's span ring. Untraced records are ignored.
  void add(const std::vector<SpanRecord>& records);

  // All assembled traces, sorted by trace_id (allocation order).
  std::vector<AssembledTrace> traces() const;

  // The most recent (highest trace_id) trace touching `session`.
  std::optional<AssembledTrace> latest_for_session(
      std::string_view session) const;

  // Chrome trace_event JSON for one or more assembled traces: per-node
  // process tracks, "X" span events, "s"/"f" flow arrows across nodes.
  static std::string chrome_json(const std::vector<AssembledTrace>& traces);
  static std::string chrome_json(const AssembledTrace& t) {
    return chrome_json(std::vector<AssembledTrace>{t});
  }

 private:
  std::vector<SpanRecord> records_;  // traced records only
};

}  // namespace pvn::telemetry

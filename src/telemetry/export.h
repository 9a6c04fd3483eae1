// Telemetry exporters: Prometheus-style text, JSON snapshots, and Chrome
// trace_event JSON (load in chrome://tracing or https://ui.perfetto.dev).
//
// All writers render to std::string so tests can golden-file them;
// export_telemetry() is the convenience wrapper benches use for
// --telemetry-out=<dir>.
#pragma once

#include <string>
#include <string_view>

#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "util/sim.h"

namespace pvn::telemetry {

// The body of a JSON string literal holding `s`: quotes, backslashes and
// control characters escaped. Every JSON writer in the tree uses it.
std::string json_escape(std::string_view s);

// printf-style formatting appended to `out`; output past 511 bytes of one
// call is cut.
void append(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

// Prometheus text exposition format. Dots in metric names become
// underscores; instances render as an {instance="..."} label; histograms
// expand to cumulative _bucket{le=...} series plus _sum and _count. Every
// metric gets `# HELP` (the text registered via MetricsRegistry::describe,
// or a generic fallback) and `# TYPE` lines; label values are escaped per
// the exposition format (backslash, double-quote, newline).
std::string prometheus_text(const MetricsSnapshot& snap);

// The same snapshot as a JSON object: {"metrics": [...]}.
std::string metrics_json(const MetricsSnapshot& snap);

// Spans as Chrome trace_event JSON: one complete ("ph":"X") event per
// finished span, instants as "ph":"i", one track (tid) per session id.
// Spans still open at export time (end < 0) — including spans the ring
// wrapped past while open — are emitted as begin-only ("ph":"B") events,
// which viewers render as incomplete, instead of being faked closed.
std::string trace_events_json(const std::vector<SpanRecord>& records,
                              SimTime now);
inline std::string trace_events_json(const SpanRecorder& rec) {
  // last_time(), not now(): exports often run after the simulator that
  // served as the recorder's clock has been destroyed.
  return trace_events_json(rec.records(), rec.last_time());
}

// The simulator profile (events + wall time per callback category) as JSON.
std::string profile_json(const SimProfile& profile);

// Writes metrics.prom, metrics.json, and trace_events.json (plus
// profile.json when `profile` is given) under `dir`, creating it if needed.
// Returns false (after perror-style stderr output) if anything fails.
bool export_telemetry(const std::string& dir,
                      const MetricsRegistry& registry,
                      const SpanRecorder& spans,
                      const SimProfile* profile = nullptr);
inline bool export_telemetry(const std::string& dir) {
  return export_telemetry(dir, MetricsRegistry::global(),
                          SpanRecorder::global());
}

}  // namespace pvn::telemetry

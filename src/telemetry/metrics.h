// MetricsRegistry: named counters, gauges, and fixed-bucket histograms.
//
// Design (DESIGN.md "Observability"):
//   * Registration happens once per (name, instance) — cold path, allocates.
//     The returned reference points at a fixed uint64 cell that stays
//     valid for the registry's lifetime, so the hot path is a single inlined
//     increment with no locks, hashing, or branches.
//   * snapshot() copies every cell into a value type the exporters
//     (telemetry/export.h) render as Prometheus text or JSON.
//
// Naming scheme: dotted `layer.component.name`, e.g.
// `sdn.flow_table.hits`. Per-entity metrics add an `instance` label
// (rendered as {instance="..."} in Prometheus text), e.g. one counter per
// link direction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pvn::telemetry {

// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_ += n; }
  std::uint64_t value() const { return v_; }
  void reset() { v_ = 0; }

 private:
  std::uint64_t v_ = 0;
};

// Point-in-time value that can move both ways (queue depth, memory in use).
class Gauge {
 public:
  void set(std::int64_t v) { v_ = v; }
  void add(std::int64_t d) { v_ += d; }
  std::int64_t value() const { return v_; }
  void reset() { v_ = 0; }

 private:
  std::int64_t v_ = 0;
};

// Fixed-bucket histogram. `bounds` are inclusive upper bounds in ascending
// order; an implicit +inf bucket catches the overflow. observe(v) lands in
// the first bucket with v <= bound. Values are plain uint64 (the repo's
// latency histograms observe SimDuration nanoseconds).
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds)
      : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {}

  void observe(std::uint64_t v) {
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    ++counts_[i];
    sum_ += v;
  }

  const std::vector<std::uint64_t>& bounds() const { return bounds_; }
  // counts()[i] counts observations <= bounds()[i]; counts().back() is +inf.
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (const std::uint64_t c : counts_) n += c;
    return n;
  }
  std::uint64_t sum() const { return sum_; }
  void reset() {
    std::fill(counts_.begin(), counts_.end(), 0);
    sum_ = 0;
  }

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t sum_ = 0;
};

// Exponential latency buckets for SimDuration observations:
// 1us, 10us, 100us, 1ms, 10ms, 100ms, 1s (in nanoseconds).
std::vector<std::uint64_t> latency_bounds_ns();

// Interpolated quantile estimate over a fixed-bucket histogram (Prometheus
// histogram_quantile semantics): find the bucket holding the q-th ranked
// observation and interpolate linearly inside it, assuming observations are
// uniform within a bucket. `counts` is Histogram::counts() — one entry per
// bound plus the trailing +inf bucket. Ranks landing in the +inf bucket
// clamp to the highest finite bound (there is no upper edge to interpolate
// toward); an empty histogram returns 0. q is clamped to [0, 1].
double estimate_quantile(const std::vector<std::uint64_t>& bounds,
                         const std::vector<std::uint64_t>& counts, double q);

// The SLO-standard trio in one pass.
struct QuantileEstimates {
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};
QuantileEstimates estimate_quantiles(const std::vector<std::uint64_t>& bounds,
                                     const std::vector<std::uint64_t>& counts);

enum class MetricKind { kCounter, kGauge, kHistogram };

// One metric's value, copied out of the live cells by snapshot().
struct MetricSample {
  std::string name;
  std::string instance;  // "" = no instance label
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter_value = 0;
  std::int64_t gauge_value = 0;
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> bucket_counts;
  std::uint64_t hist_count = 0;
  std::uint64_t hist_sum = 0;

  // Histogram samples only (0 otherwise): interpolated quantile estimate.
  double quantile(double q) const {
    return estimate_quantile(bounds, bucket_counts, q);
  }
};

struct MetricsSnapshot {
  std::vector<MetricSample> samples;  // sorted by (name, instance)
  // Help strings registered via MetricsRegistry::describe(), by name.
  std::map<std::string, std::string> help;

  const MetricSample* find(std::string_view name,
                           std::string_view instance = "") const;
  // Sum of counter values across all instances sharing `name`.
  std::uint64_t counter_total(std::string_view name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry every instrumented component writes to.
  static MetricsRegistry& global();

  // Idempotent: the same (name, instance) always returns the same cell.
  Counter& counter(std::string_view name, std::string_view instance = "");
  Gauge& gauge(std::string_view name, std::string_view instance = "");
  // A histogram's bounds are fixed by the first registration; later calls
  // with the same key return the existing histogram regardless of bounds.
  Histogram& histogram(std::string_view name, std::string_view instance,
                       std::vector<std::uint64_t> bounds);
  Histogram& histogram(std::string_view name,
                       std::vector<std::uint64_t> bounds) {
    return histogram(name, "", std::move(bounds));
  }

  // Attaches Prometheus `# HELP` text to a metric name (all instances).
  // Idempotent; the last description wins. Cold path, like registration.
  void describe(std::string_view name, std::string_view help);

  MetricsSnapshot snapshot() const;
  // Snapshot restricted to the given metric names (every instance of each).
  // Cost scales with the watched series, not the registry — what per-window
  // pollers like the health monitor want. No help text is copied.
  MetricsSnapshot snapshot_for(const std::vector<std::string>& names) const;
  // Zeroes every value; registrations (and handed-out references) survive.
  void reset();
  std::size_t size() const { return index_.size(); }

 private:
  struct Entry {
    std::string name;
    std::string instance;
    MetricKind kind;
    Counter counter;
    Gauge gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry_for(std::string_view name, std::string_view instance,
                   MetricKind kind);
  static MetricSample sample_of(const Entry& e);

  // deque: stable addresses for handed-out cell references.
  std::deque<Entry> entries_;
  std::map<std::pair<std::string, std::string>, Entry*> index_;
  std::map<std::string, std::string> help_;  // describe() text, by name
};

// One object's own count of an event, for counts a getter reports and an
// exporter also sees. inc() bumps the object's value and the global
// registry's (name, instance) counter registered at construction, which
// holds the aggregate over every object sharing that key. value() is this
// object's count only: MetricsRegistry::reset() zeroes the cell, not it.
// Copies count into the same cell.
class Tally {
 public:
  explicit Tally(std::string_view name, std::string_view instance = "");

  void inc(std::uint64_t n = 1) {
    v_ += n;
    cell_->inc(n);
  }
  std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
  Counter* cell_;
};

}  // namespace pvn::telemetry

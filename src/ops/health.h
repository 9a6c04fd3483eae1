// SLO health monitor: declarative rules over sliding metric windows.
//
// The monitor turns the raw MetricsRegistry into a small set of typed
// alerts — the operator-facing answer to "is this PVN provider healthy
// right now?". It works on *windows*, not cumulative values: evaluate(now)
// closes every whole window boundary that has passed (boundaries are fixed
// multiples of the window length from simulated t=0), snapshots each
// watched series at the close, and
// scores the window's *delta* against the rule:
//
//   * kHistogramQuantile — interpolated quantile (metrics.h
//     estimate_quantile) of only the observations that landed in the
//     window, via bucket-count deltas. "deploy p99 this window", not
//     "deploy p99 since boot".
//   * kHistogramSum — the window's new observation mass; blackout budget
//     burn per window.
//   * kCounterDelta — counter increase per window (summed across the
//     rule's metric list), e.g. retransmissions or quarantine churn.
//
// Rules fire with hysteresis: a rule must breach `fire_above` for
// `min_windows` consecutive windows to start firing, and then stay at or
// below `clear_below` for `min_windows` consecutive windows to clear — a
// single noisy window neither raises nor silences an alert. Every state
// transition is timestamped (`since`), and cleared alerts stay queryable
// (firing=0) so an operator who missed the breach still sees it happened.
//
// Determinism contract: evaluate() runs inside simulator events (the ops
// endpoint's get-alerts handler, the chaos auditor's sweep), and window
// boundaries depend only on simulated time, so the alert list — and
// ops_alerts_digest over it — is a function of the simulation alone.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "proto/ops.h"
#include "telemetry/metrics.h"
#include "util/time.h"

namespace pvn {

enum class HealthSignal : std::uint8_t {
  kHistogramQuantile = 0,  // quantile of the window's new observations
  kHistogramSum = 1,       // sum of new observations in the window
  kCounterDelta = 2,       // counter increase over the window
};

struct HealthRule {
  std::string name;    // alert name, e.g. "deploy-p99"
  std::string metric;  // watched series (registry name, "" instance)
  // kCounterDelta only: extra series whose deltas are summed in (e.g.
  // quarantine churn = enters + exits).
  std::vector<std::string> extra_metrics;
  HealthSignal signal = HealthSignal::kCounterDelta;
  double quantile = 0.99;   // kHistogramQuantile only
  double fire_above = 0;    // breach when the window value exceeds this
  double clear_below = 0;   // recovery when the value is at or below this
  std::uint32_t min_windows = 1;  // consecutive windows to flip state
};

struct HealthMonitorConfig {
  SimDuration window = 200 * kMillisecond;
  // Per-rule ring of recent window values kept for introspection.
  std::size_t history = 64;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthMonitorConfig cfg = {},
                         telemetry::MetricsRegistry* registry = nullptr);

  void add_rule(HealthRule rule);
  // The four stock PVN SLO rules: deploy p99 latency, blackout budget burn,
  // deploy retransmission rate, quarantine churn.
  static std::vector<HealthRule> default_rules();

  // Closes every window boundary at or before `now` and re-scores all
  // rules. Call from a simulator event or between runs.
  // Returns how many windows were closed by this call.
  std::size_t evaluate(SimTime now);

  // Alert list in rule-registration order: every rule that is currently
  // firing or has fired before (cleared history keeps firing=0). Stable
  // given the same evaluate() history — digest this for determinism checks.
  std::vector<OpsAlert> alerts() const;

  SimDuration window() const { return cfg_.window; }
  std::size_t windows_closed() const { return windows_closed_; }
  std::size_t rule_count() const { return rules_.size(); }

 private:
  struct SeriesPoint {
    std::uint64_t counter = 0;  // counters: total across instances + extras
    std::vector<std::uint64_t> bucket_counts;
    std::uint64_t hist_sum = 0;
  };
  struct RuleState {
    HealthRule rule;
    SeriesPoint prev;        // cumulative values at the last window close
    bool has_prev = false;   // first close only establishes the baseline
    std::deque<double> values;
    double last_value = 0;
    bool firing = false;
    bool fired_ever = false;
    std::uint32_t breach_streak = 0;  // consecutive windows above fire_above
    std::uint32_t clear_streak = 0;   // consecutive windows <= clear_below
    SimTime since = 0;  // when the rule entered its current firing state
  };

  void close_window(SimTime at);
  SeriesPoint sample_series(const telemetry::MetricsSnapshot& snap,
                            const HealthRule& rule) const;

  HealthMonitorConfig cfg_;
  telemetry::MetricsRegistry* registry_;  // never null
  std::vector<RuleState> rules_;
  SimTime next_close_ = 0;  // the next unclosed window boundary
  std::size_t windows_closed_ = 0;
};

}  // namespace pvn

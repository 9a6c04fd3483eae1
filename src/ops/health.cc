#include "ops/health.h"

#include <algorithm>

namespace pvn {

HealthMonitor::HealthMonitor(HealthMonitorConfig cfg,
                             telemetry::MetricsRegistry* registry)
    : cfg_(cfg),
      registry_(registry != nullptr ? registry
                                    : &telemetry::MetricsRegistry::global()) {
  if (cfg_.window <= 0) cfg_.window = kMillisecond;
  if (cfg_.history == 0) cfg_.history = 1;
  next_close_ = cfg_.window;
}

void HealthMonitor::add_rule(HealthRule rule) {
  RuleState st;
  st.rule = std::move(rule);
  rules_.push_back(std::move(st));
}

std::vector<HealthRule> HealthMonitor::default_rules() {
  std::vector<HealthRule> rules;
  {
    HealthRule r;
    r.name = "deploy-p99";
    r.metric = "pvn.client.deploy_latency_ns";
    r.signal = HealthSignal::kHistogramQuantile;
    r.quantile = 0.99;
    r.fire_above = 120.0 * kMillisecond;  // p99 deploy beyond 120 ms
    r.clear_below = 100.0 * kMillisecond;
    r.min_windows = 2;
    rules.push_back(std::move(r));
  }
  {
    HealthRule r;
    r.name = "blackout-budget";
    r.metric = "pvn.client.blackout_ns";
    r.signal = HealthSignal::kHistogramSum;
    // Budget: 50 ms of session blackout burned in a single window.
    r.fire_above = 50.0 * kMillisecond;
    r.clear_below = 25.0 * kMillisecond;
    r.min_windows = 1;
    rules.push_back(std::move(r));
  }
  {
    HealthRule r;
    r.name = "retransmit-rate";
    r.metric = "pvn.client.deploy_retransmissions";
    r.signal = HealthSignal::kCounterDelta;
    r.fire_above = 3;  // more than 3 control retransmissions per window
    r.clear_below = 1;
    r.min_windows = 2;
    rules.push_back(std::move(r));
  }
  {
    HealthRule r;
    r.name = "quarantine-churn";
    r.metric = "audit.reputation.quarantine_enters";
    r.extra_metrics = {"audit.reputation.quarantine_exits"};
    r.signal = HealthSignal::kCounterDelta;
    r.fire_above = 2;  // hosts flapping in and out of quarantine
    r.clear_below = 0;
    r.min_windows = 2;
    rules.push_back(std::move(r));
  }
  return rules;
}

HealthMonitor::SeriesPoint HealthMonitor::sample_series(
    const telemetry::MetricsSnapshot& snap, const HealthRule& rule) const {
  SeriesPoint pt;
  if (rule.signal == HealthSignal::kCounterDelta) {
    pt.counter = snap.counter_total(rule.metric);
    for (const std::string& extra : rule.extra_metrics) {
      pt.counter += snap.counter_total(extra);
    }
    return pt;
  }
  if (const telemetry::MetricSample* s = snap.find(rule.metric)) {
    pt.bucket_counts = s->bucket_counts;
    pt.hist_sum = s->hist_sum;
  }
  return pt;
}

std::size_t HealthMonitor::evaluate(SimTime now) {
  std::size_t closed = 0;
  // Boundaries are fixed multiples of the window length from t=0, so the
  // evaluation schedule — and hence every alert transition — depends only
  // on simulated time, never on how often a caller polls.
  while (next_close_ <= now) {
    close_window(next_close_);
    next_close_ += cfg_.window;
    ++closed;
  }
  return closed;
}

void HealthMonitor::close_window(SimTime at) {
  ++windows_closed_;
  // Sample only the watched series: window closes run at every evaluation, and
  // a full-registry snapshot scales with everything ever registered in the
  // process, not with this monitor's rules. Names are deduped because
  // snapshot_for copies (and counter_total would then double-count) one
  // range per requested name.
  std::vector<std::string> watched;
  for (const RuleState& st : rules_) {
    watched.push_back(st.rule.metric);
    watched.insert(watched.end(), st.rule.extra_metrics.begin(),
                   st.rule.extra_metrics.end());
  }
  std::sort(watched.begin(), watched.end());
  watched.erase(std::unique(watched.begin(), watched.end()), watched.end());
  const telemetry::MetricsSnapshot snap = registry_->snapshot_for(watched);
  for (RuleState& st : rules_) {
    const HealthRule& rule = st.rule;
    SeriesPoint cur = sample_series(snap, rule);
    double value = 0;
    if (st.has_prev) {
      switch (rule.signal) {
        case HealthSignal::kHistogramQuantile: {
          // Quantile over only this window's observations: subtract the
          // cumulative bucket counts captured at the previous close. The
          // bounds come from the live registry (fixed at registration).
          std::vector<std::uint64_t> delta = cur.bucket_counts;
          for (std::size_t i = 0;
               i < delta.size() && i < st.prev.bucket_counts.size(); ++i) {
            delta[i] -= st.prev.bucket_counts[i];
          }
          if (const telemetry::MetricSample* s = snap.find(rule.metric)) {
            value = telemetry::estimate_quantile(s->bounds, delta,
                                                 rule.quantile);
          }
          break;
        }
        case HealthSignal::kHistogramSum:
          value = static_cast<double>(cur.hist_sum - st.prev.hist_sum);
          break;
        case HealthSignal::kCounterDelta:
          value = static_cast<double>(cur.counter - st.prev.counter);
          break;
      }
    }
    st.prev = std::move(cur);
    const bool baseline = !st.has_prev;
    st.has_prev = true;
    if (baseline) continue;  // the first close only establishes the baseline

    st.last_value = value;
    st.values.push_back(value);
    while (st.values.size() > cfg_.history) st.values.pop_front();

    // Hysteresis: both transitions need min_windows consecutive windows of
    // evidence; anything between clear_below and fire_above resets the
    // opposing streak without flipping state.
    if (value > rule.fire_above) {
      ++st.breach_streak;
      st.clear_streak = 0;
    } else if (value <= rule.clear_below) {
      ++st.clear_streak;
      st.breach_streak = 0;
    } else {
      st.breach_streak = 0;
      st.clear_streak = 0;
    }
    if (!st.firing && st.breach_streak >= rule.min_windows) {
      st.firing = true;
      st.fired_ever = true;
      st.since = at;
    } else if (st.firing && st.clear_streak >= rule.min_windows) {
      st.firing = false;
      st.since = at;
    }
  }
}

std::vector<OpsAlert> HealthMonitor::alerts() const {
  std::vector<OpsAlert> out;
  for (const RuleState& st : rules_) {
    if (!st.firing && !st.fired_ever) continue;
    OpsAlert a;
    a.rule = st.rule.name;
    a.metric = st.rule.metric;
    a.firing = st.firing ? 1 : 0;
    a.value = st.last_value;
    a.threshold = st.rule.fire_above;
    a.since = st.since;
    a.windows = st.firing ? st.breach_streak : st.clear_streak;
    out.push_back(std::move(a));
  }
  return out;
}

}  // namespace pvn

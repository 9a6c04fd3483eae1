#include "telemetry/metrics.h"

#include <algorithm>

namespace pvn::telemetry {

std::vector<std::uint64_t> latency_bounds_ns() {
  return {1'000,          10'000,        100'000,       1'000'000,
          10'000'000,     100'000'000,   1'000'000'000};
}

double estimate_quantile(const std::vector<std::uint64_t>& bounds,
                         const std::vector<std::uint64_t>& counts, double q) {
  if (counts.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  // Rank of the target observation, 1-based; q=0 maps to rank 1 (the min).
  const double rank = std::max(1.0, q * static_cast<double>(total));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const std::uint64_t cum_before = cum;
    cum += counts[i];
    if (static_cast<double>(cum) < rank) continue;
    if (i >= bounds.size()) {
      // +inf bucket: no upper edge to interpolate toward.
      return bounds.empty() ? 0.0
                            : static_cast<double>(bounds.back());
    }
    const double lower =
        i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
    const double upper = static_cast<double>(bounds[i]);
    const double into = (rank - static_cast<double>(cum_before)) /
                        static_cast<double>(counts[i]);
    return lower + into * (upper - lower);
  }
  return bounds.empty() ? 0.0 : static_cast<double>(bounds.back());
}

QuantileEstimates estimate_quantiles(
    const std::vector<std::uint64_t>& bounds,
    const std::vector<std::uint64_t>& counts) {
  QuantileEstimates e;
  e.p50 = estimate_quantile(bounds, counts, 0.50);
  e.p95 = estimate_quantile(bounds, counts, 0.95);
  e.p99 = estimate_quantile(bounds, counts, 0.99);
  return e;
}

const MetricSample* MetricsSnapshot::find(std::string_view name,
                                          std::string_view instance) const {
  for (const MetricSample& s : samples) {
    if (s.name == name && s.instance == instance) return &s;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter_total(std::string_view name) const {
  std::uint64_t total = 0;
  for (const MetricSample& s : samples) {
    if (s.name == name && s.kind == MetricKind::kCounter) {
      total += s.counter_value;
    }
  }
  return total;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Entry& MetricsRegistry::entry_for(std::string_view name,
                                                   std::string_view instance,
                                                   MetricKind kind) {
  const auto key = std::make_pair(std::string(name), std::string(instance));
  const auto it = index_.find(key);
  if (it != index_.end()) return *it->second;
  Entry& e = entries_.emplace_back();
  e.name = key.first;
  e.instance = key.second;
  e.kind = kind;
  index_[key] = &e;
  return e;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view instance) {
  return entry_for(name, instance, MetricKind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name,
                              std::string_view instance) {
  return entry_for(name, instance, MetricKind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view instance,
                                      std::vector<std::uint64_t> bounds) {
  Entry& e = entry_for(name, instance, MetricKind::kHistogram);
  if (e.histogram == nullptr) {
    e.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return *e.histogram;
}

MetricSample MetricsRegistry::sample_of(const Entry& e) {
  MetricSample s;
  s.name = e.name;
  s.instance = e.instance;
  s.kind = e.kind;
  switch (e.kind) {
    case MetricKind::kCounter:
      s.counter_value = e.counter.value();
      break;
    case MetricKind::kGauge:
      s.gauge_value = e.gauge.value();
      break;
    case MetricKind::kHistogram:
      s.bounds = e.histogram->bounds();
      s.bucket_counts = e.histogram->counts();
      s.hist_count = e.histogram->count();
      s.hist_sum = e.histogram->sum();
      break;
  }
  return s;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.samples.reserve(index_.size());
  // index_ is an ordered map keyed on (name, instance): deterministic order.
  for (const auto& [key, entry] : index_) {
    snap.samples.push_back(sample_of(*entry));
  }
  snap.help = help_;
  return snap;
}

MetricsSnapshot MetricsRegistry::snapshot_for(
    const std::vector<std::string>& names) const {
  MetricsSnapshot snap;
  // index_ is keyed on (name, instance), so every instance of one name is a
  // contiguous range: one lower_bound per watched name, no full scan.
  for (const std::string& name : names) {
    for (auto it = index_.lower_bound({name, std::string()});
         it != index_.end() && it->first.first == name; ++it) {
      snap.samples.push_back(sample_of(*it->second));
    }
  }
  return snap;
}

void MetricsRegistry::describe(std::string_view name, std::string_view help) {
  help_[std::string(name)] = std::string(help);
}

void MetricsRegistry::reset() {
  for (Entry& e : entries_) {
    e.counter.reset();
    e.gauge.reset();
    if (e.histogram != nullptr) e.histogram->reset();
  }
}

Tally::Tally(std::string_view name, std::string_view instance)
    : cell_(&MetricsRegistry::global().counter(name, instance)) {}

}  // namespace pvn::telemetry

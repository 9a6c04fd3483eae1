// Shared helpers for the experiment benches: table printing, the quick-mode
// switch, the A/B comparator every host-time gate uses, and the JSON writer
// every machine-readable summary goes through.
//
// Most experiments are simulation studies (run a scenario, report a table
// in the shape the paper argues), so each bench prints labelled rows;
// bench_e15_dataplane additionally uses google-benchmark for the
// microbenchmark-shaped measurements.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/export.h"

namespace pvn::bench {

// Quick mode (PVN_BENCH_QUICK set to anything but "0", or --quick) shrinks
// a bench's workload for CI; every gate still runs.
inline bool quick_mode(int argc, char** argv) {
  const char* env = std::getenv("PVN_BENCH_QUICK");
  bool quick = env != nullptr && std::strcmp(env, "0") != 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  return quick;
}

// The p-quantile of a sample set, interpolating linearly between order
// statistics, so p = 0.5 is the median. Copies so callers keep their
// ordering.
inline double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double h = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// CPU time of the calling thread. The single-threaded gates compare runs of
// tens of milliseconds; wall clock at that scale is dominated by whatever
// else the machine is doing (±5% observed on a loaded box), while thread CPU
// time isolates the work actually executed.
inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// --- the A/B comparator ------------------------------------------------------

// One run of one side: the work it did (events, lookups) and the seconds it
// took on the clock the gate measures — thread CPU time for single-threaded
// work, wall clock when the run spans threads.
struct AbSample {
  double work = 0;
  double seconds = 0;
};

struct AbResult {
  double base_rate = 0;     // median work per second of side A over the pairs
  double variant_rate = 0;  // same for side B
  double ratio = 0;         // median over pairs of B's rate / A's rate
  double ratio_iqr = 0;     // interquartile range of those per-pair ratios

  // B's cost over A's as a percentage of A's rate: the overhead gates' bound.
  double overhead_pct() const { return (1.0 - ratio) * 100.0; }
};

// The shortest measurement of one side in a pair. A quick-mode run of
// e15's dataplane scenario or e17's tick loop lasts 4-10 ms, about one
// scheduler tick, so a single interrupt or preemption is a large share of
// it. Longer measurements do not help: on a shared 4-vCPU VM the speed of
// identical runs moves in plateaus of ±30% lasting a few hundred ms, so a
// longer pair straddles more plateau edges.
inline constexpr double kMinRunSeconds = 0.05;

// Pairs per gated comparison. On that VM adjacent runs of one workload
// differ by ±7% (interquartile). Replaying recorded runs through this
// comparator, a variant with a true 1.4% overhead (e20's recorder) read
// >= 5% in 11-22% of 5-pair medians, and one with 3% (about e22's stack)
// in 15% of 21-pair and 8% of 31-pair medians. More pairs gain little
// beyond that: neighbouring pairs share a plateau, so they are not
// independent.
inline constexpr int kAbPairs = 31;

// Compares the rate of `variant` (B) against `base` (A). After one warm-up
// run of each side (first-touch allocation, caches, the CPU governor) it
// measures `pairs` interleaved pairs, alternating which side goes first so
// a drift in machine speed cannot favour one side. Each side's measurement
// repeats its run until kMinRunSeconds of its clock have passed and divides
// the summed work by the summed time. The two measurements of a pair are
// adjacent in time, so machine-load noise hits both roughly equally and
// cancels in their ratio; the median ratio decides, so one noisy pair
// cannot flip a gate.
inline AbResult ab_compare(const std::function<AbSample()>& base,
                           const std::function<AbSample()>& variant,
                           int pairs) {
  const auto rate = [](const std::function<AbSample()>& side) {
    AbSample total;
    do {
      const AbSample s = side();
      total.work += s.work;
      total.seconds += s.seconds;
    } while (total.seconds < kMinRunSeconds);
    return total.work / total.seconds;
  };
  base();
  variant();
  std::vector<double> base_rates, variant_rates, ratios;
  for (int i = 0; i < pairs; ++i) {
    double a = 0, b = 0;
    if (i % 2 == 0) {
      a = rate(base);
      b = rate(variant);
    } else {
      b = rate(variant);
      a = rate(base);
    }
    base_rates.push_back(a);
    variant_rates.push_back(b);
    ratios.push_back(b / a);
  }
  AbResult r;
  r.base_rate = quantile(base_rates, 0.5);
  r.variant_rate = quantile(variant_rates, 0.5);
  r.ratio = quantile(ratios, 0.5);
  r.ratio_iqr = quantile(ratios, 0.75) - quantile(ratios, 0.25);
  return r;
}

// --- JSON --------------------------------------------------------------------

// Builds one JSON document. Objects hold keyed members (`field`, or a keyed
// begin_object/begin_array); arrays hold unkeyed objects. Integers are
// written exactly, other numbers with a fixed count of decimals (printf's
// %.*f, so 0 decimals still reads back as an integer), and strings are
// escaped. Pretty output gives each member its own line, indented two
// spaces per level; compact output is one line.
class JsonWriter {
 public:
  explicit JsonWriter(bool pretty = true) : pretty_(pretty) {}

  JsonWriter& begin_object() { return open(std::nullopt, '{'); }
  JsonWriter& begin_object(std::string_view key) { return open(key, '{'); }
  JsonWriter& begin_array(std::string_view key) { return open(key, '['); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& field(std::string_view key, bool v) {
    item(key);
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& field(std::string_view key, std::string_view v) {
    item(key);
    quote(v);
    return *this;
  }
  JsonWriter& field(std::string_view key, const char* v) {
    return field(key, std::string_view(v));
  }
  template <std::integral T>
  JsonWriter& field(std::string_view key, T v) {
    item(key);
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& field(std::string_view key, double v, int decimals) {
    item(key);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
    out_ += buf;
    return *this;
  }
  // A double needs its decimals; without this it would convert to bool.
  JsonWriter& field(std::string_view key, double v) = delete;

  const std::string& str() const { return out_; }

 private:
  // Starts a member or element: the comma after a sibling, the line break
  // when pretty, then the key.
  void item(std::optional<std::string_view> key) {
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
      newline();
    }
    if (key.has_value()) {
      quote(*key);
      out_ += pretty_ ? ": " : ":";
    }
  }
  JsonWriter& open(std::optional<std::string_view> key, char bracket) {
    item(key);
    out_ += bracket;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& close(char bracket) {
    const bool empty = first_.back();
    first_.pop_back();
    if (!empty) newline();
    out_ += bracket;
    return *this;
  }
  void newline() {
    if (!pretty_) return;
    out_ += '\n';
    out_.append(2 * first_.size(), ' ');
  }
  void quote(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  bool pretty_;
  std::vector<bool> first_;  // per open container: no member written yet
  std::string out_;
};

// Writes a bench's summary to the path in PVN_BENCH_JSON, or to
// `default_path` when that is unset. Returns false when the file could not
// be written; the bench then exits nonzero.
[[nodiscard]] inline bool write_json(const JsonWriter& json,
                                     const char* default_path) {
  const char* env = std::getenv("PVN_BENCH_JSON");
  const char* path = env != nullptr ? env : default_path;
  std::FILE* f = std::fopen(path, "w");
  bool ok = f != nullptr;
  if (ok) {
    ok = std::fprintf(f, "%s\n", json.str().c_str()) >= 0;
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::printf("\nwrote %s\n", path);
  return true;
}

// --- telemetry export --------------------------------------------------------

// Telemetry export destination: --telemetry-out=<dir> on the command line,
// or the PVN_TELEMETRY_OUT environment variable. Empty = disabled.
inline std::string telemetry_out_dir(int argc, char** argv) {
  constexpr const char kFlag[] = "--telemetry-out=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0) {
      return argv[i] + (sizeof(kFlag) - 1);
    }
  }
  const char* env = std::getenv("PVN_TELEMETRY_OUT");
  return env != nullptr ? env : "";
}

// RAII guard every bench constructs at the top of main(): when a telemetry
// output directory was requested, the destructor dumps the global metrics
// registry and span ring there (metrics.prom, metrics.json,
// trace_events.json — the latter loads in chrome://tracing / Perfetto), plus
// profile.json when a bench handed over its simulator profile. It is the
// only export a bench makes.
class TelemetryScope {
 public:
  TelemetryScope(int argc, char** argv)
      : dir_(telemetry_out_dir(argc, argv)) {}
  ~TelemetryScope() {
    if (dir_.empty()) return;
    if (telemetry::export_telemetry(
            dir_, telemetry::MetricsRegistry::global(),
            telemetry::SpanRecorder::global(),
            profile_.has_value() ? &*profile_ : nullptr)) {
      std::printf("telemetry written to %s\n", dir_.c_str());
    } else {
      std::fprintf(stderr, "cannot write telemetry to %s\n", dir_.c_str());
    }
  }
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

  void set_profile(const SimProfile& profile) { profile_ = profile; }

 private:
  std::string dir_;
  std::optional<SimProfile> profile_;
};

// --- tables ------------------------------------------------------------------

inline void title(const std::string& experiment, const std::string& claim) {
  std::printf("\n=== %s ===\n", experiment.c_str());
  std::printf("paper claim: %s\n\n", claim.c_str());
}

inline void header(const std::vector<std::string>& cols) {
  for (const std::string& c : cols) std::printf("%-22s", c.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < cols.size(); ++i) std::printf("%-22s", "------");
  std::printf("\n");
}

inline void cell(const std::string& v) { std::printf("%-22s", v.c_str()); }
inline void cell(double v) { std::printf("%-22.3f", v); }
inline void cell(int v) { std::printf("%-22d", v); }
inline void cell(std::uint64_t v) {
  std::printf("%-22llu", static_cast<unsigned long long>(v));
}

template <typename... Ts>
void row(Ts... vs) {
  (cell(vs), ...);
  std::printf("\n");
}

}  // namespace pvn::bench

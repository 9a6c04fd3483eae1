// pvnbench: the repository's end-to-end benchmark program.
//
//   pvnbench --workload <fleet_churn|chain_web|tunnel_mix> --seed <n>
//            --seconds <s> --trace <0|1>
//
// Builds the workload from the seed, runs one untimed warm-up repetition,
// then repeats the same seeded simulation until --seconds of host time have
// been measured, and reports medians over the repetitions. Every repetition
// must reproduce the same simulated outcomes (digest) and pass the
// correctness checks; otherwise the result says correct=false and the exit
// code is 1.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced repetitions and reports the per-layer metrics (trace.h), the
// tracing overhead, and the reconciliation of per-layer self times against
// the traced wall time. The last line of stdout is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "audit/telemetry_check.h"
#include "telemetry/span.h"
#include "trace.h"
#include "workloads.h"

namespace pvnbench {
namespace {

using Clock = std::chrono::steady_clock;

// The simulation advances in slices so the event heap can be sampled from
// outside (util.sim.heap_peak); slicing does not change event order.
constexpr pvn::SimDuration kSlice = pvn::milliseconds(100);

// Shared hosts drift: the same repetition ran 0.44-0.98 s within an hour on
// one 4-vCPU VM, and a pure CPU loop slowed by the same factor. So every
// repetition is bracketed by a fixed reference task (Reference, run once
// before the workload is built and once after it is destroyed) and its
// host-time end-to-end metrics are scaled to the speed at which the two
// runs take kReferenceWorkS together: seconds at reference speed. The task
// is benchmark code on buffers allocated once at start-up and touched
// before its clock starts; it never calls the allocator and never runs
// while a workload is alive, so the program's heap cannot move it.
constexpr double kReferenceWorkS = 0.025;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Rep {
  bool traced = false;
  double reference_s = 0.0;  // reference_work_s() before + after this rep
  double setup_s = 0.0;      // raw host seconds
  double wall_s = 0.0;
  double scale() const { return kReferenceWorkS / reference_s; }
  Outcome out;
  std::vector<Metric> layers;
  std::vector<SelfTime> self_times;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

// Nearest-rank percentile of sim-time latencies, in ms.
double percentile_ms(std::vector<pvn::SimDuration> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]) / 1e6;
}

// Fixed CPU- and memory-bound work resembling the simulator's mix (sorting,
// hash probes, a binary heap) on seeded data, in buffers it owns.
class Reference {
 public:
  Reference() : sorted_(kItems), slots_(kSlots), heap_(kItems) {}

  // Host seconds of one pass.
  double run_s() {
    // Bring the buffers into cache, so what ran before does not count.
    std::fill(sorted_.begin(), sorted_.end(), 0u);
    std::fill(slots_.begin(), slots_.end(), 0u);
    std::fill(heap_.begin(), heap_.end(), 0u);
    const auto t0 = Clock::now();
    std::uint64_t x = 88172645463325252ull;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (std::uint32_t& e : sorted_) e = static_cast<std::uint32_t>(next());
    std::sort(sorted_.begin(), sorted_.end());
    // Open addressing with linear probing; key 0 marks an empty slot.
    const auto slot = [this](std::uint32_t key) -> std::uint32_t& {
      std::size_t i = (key * 2654435761u) & (kSlots - 1);
      while (slots_[i] != 0 && slots_[i] != key) i = (i + 1) & (kSlots - 1);
      return slots_[i];
    };
    for (std::size_t i = 0; i < kItems / 2; ++i) {
      const auto key = static_cast<std::uint32_t>(next() % 100000 + 1);
      slot(key) = key;
    }
    std::uint64_t acc = sorted_[kItems / 2];
    for (int i = 0; i < 100000; ++i) {
      acc += slot(static_cast<std::uint32_t>(next() % 100000 + 1)) != 0;
    }
    for (std::size_t n = 0; n < kItems; ++n) {
      heap_[n] = next() % 1000000;
      std::push_heap(heap_.begin(), heap_.begin() + static_cast<long>(n) + 1);
    }
    for (std::size_t n = kItems; n > 0; --n) {
      acc += heap_.front();
      std::pop_heap(heap_.begin(), heap_.begin() + static_cast<long>(n));
    }
    static volatile std::uint64_t sink = 0;
    sink = sink + acc;
    return seconds_since(t0);
  }

 private:
  static constexpr std::size_t kItems = 50000;
  static constexpr std::size_t kSlots = 65536;  // power of two, > 2x load
  std::vector<std::uint32_t> sorted_;
  std::vector<std::uint32_t> slots_;
  std::vector<std::uint64_t> heap_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Rep run_rep(const Args& args, bool traced, Reference& reference) {
  pvn::telemetry::MetricsRegistry::global().reset();
  pvn::telemetry::SpanRecorder::global().clear();
  Rep rep;
  rep.traced = traced;
  rep.reference_s = reference.run_s();

  const auto t0 = Clock::now();
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
  rep.setup_s = seconds_since(t0);
  std::unique_ptr<Tracer> tracer;
  if (traced) tracer = std::make_unique<Tracer>(*w, args.seed);

  pvn::Simulator& sim = w->net().sim();
  const pvn::SimTime horizon = w->horizon();
  std::size_t heap_peak = 0;
  const auto t1 = Clock::now();
  for (pvn::SimTime t = kSlice;; t += kSlice) {
    sim.run_until(std::min(t, horizon));
    heap_peak = std::max(heap_peak, sim.pending_events());
    if (t >= horizon) break;
  }
  rep.wall_s = seconds_since(t1);

  rep.out.events = sim.profile().total_events();
  rep.out.heap_peak = heap_peak;
  w->collect(rep.out);
  for (const pvn::TelemetryFinding& f :
       pvn::TelemetryAuditor{}.check_dataplane_consistency(
           pvn::telemetry::MetricsRegistry::global().snapshot())) {
    rep.out.errors.push_back("telemetry audit " + f.check + ": " + f.detail);
  }
  if (tracer) {
    rep.layers = tracer->finish(rep.out, rep.wall_s);
    rep.self_times = tracer->self_times();
  }
  // The workload goes first: its switches hold the tracer's wrappers.
  w.reset();
  tracer.reset();
  rep.reference_s += reference.run_s();
  return rep;
}

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] == '1';
    } else {
      return false;
    }
  }
  if (argc % 2 != 1 || !have_workload) return false;
  const auto& names = workload_names();
  return std::find(names.begin(), names.end(), args.workload) != names.end();
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " +
         json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

void print_metric(const Metric& m) {
  std::printf("  %-30s %16.6g %-6s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.base.c_str());
}

int run(const Args& args) {
  std::printf("pvnbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  Reference reference;
  std::vector<Rep> reps;
  reps.push_back(run_rep(args, false, reference));  // warm-up: not measured
  const auto t0 = Clock::now();
  std::size_t untraced = 0;
  std::size_t traced = 0;
  const std::size_t min_each = args.trace ? 2 : 3;
  while (seconds_since(t0) < args.seconds || untraced < min_each ||
         (args.trace && traced < min_each)) {
    const bool trace_this = args.trace && traced < untraced;
    reps.push_back(run_rep(args, trace_this, reference));
    ++(trace_this ? traced : untraced);
  }

  // --- correctness: checks, and identical outcomes in every repetition ---
  bool correct = true;
  const std::uint64_t digest = reps.front().out.digest();
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Outcome& o = reps[i].out;
    attempted += o.attempted;
    failed += o.failed;
    for (const std::string& e : o.errors) {
      std::printf("CHECK FAILED (rep %zu): %s\n", i, e.c_str());
      correct = false;
    }
    if (o.digest() != digest) {
      std::printf("CHECK FAILED (rep %zu): outcome digest %016llx != %016llx\n",
                  i, static_cast<unsigned long long>(o.digest()),
                  static_cast<unsigned long long>(digest));
      correct = false;
    }
  }
  const Outcome& out = reps.front().out;
  const std::vector<Rep> measured(reps.begin() + 1, reps.end());
  // Host times at reference speed (kReferenceWorkS), and raw for the report.
  std::vector<double> setup, wall, traced_wall, raw_setup, raw_wall, ref_s;
  for (const Rep& r : measured) {
    setup.push_back(r.setup_s * r.scale());
    (r.traced ? traced_wall : wall).push_back(r.wall_s * r.scale());
    raw_setup.push_back(r.setup_s);
    if (!r.traced) raw_wall.push_back(r.wall_s);
    ref_s.push_back(r.reference_s);
  }
  const double wall_s = median(wall);
  std::printf("reps: %zu measured (%zu untraced, %zu traced) + 1 warm-up; "
              "outcome digest %016llx\n",
              measured.size(), untraced, traced,
              static_cast<unsigned long long>(digest));
  std::printf("host speed: reference work took %.3f ms (median; %.0f ms = "
              "reference speed); raw medians setup_s %.6g s, wall_s %.6g s\n",
              median(ref_s) * 1e3, kReferenceWorkS * 1e3, median(raw_setup),
              median(raw_wall));

  // --- end-to-end ---------------------------------------------------------
  // The workload's primary operation: an HTTP fetch on the data workloads,
  // a session deploy on fleet_churn.
  const auto n = [](const std::vector<pvn::SimDuration>& v) {
    return "n=" + std::to_string(v.size());
  };
  const std::vector<pvn::SimDuration>& ops =
      out.fetch.empty() ? out.deploy : out.fetch;
  const std::vector<Metric> e2e = {
      {"setup_s", "s", median(setup), "topology and inputs"},
      {"wall_s", "s", wall_s, "simulation phase"},
      {"sim_pkts_per_s", "1/s", static_cast<double>(out.link_pkts) / wall_s,
       "link deliveries per wall second"},
      {"peak_rss_mb", "MB", peak_rss_mb(), "whole process"},
      {"op_p50_ms", "ms", percentile_ms(ops, 0.50), n(ops)},
      {"op_p99_ms", "ms", percentile_ms(ops, 0.99), n(ops)},
  };
  std::printf("end-to-end (host medians over %zu untraced reps at reference "
              "speed; sim times from the scheduled start):\n", wall.size());
  for (const Metric& m : e2e) print_metric(m);
  std::printf("workload outcomes (simulated, identical in every rep):\n");
  if (!out.handover.empty()) {
    print_metric({"deploy_wall_us", "us",
                  wall_s * 1e6 / static_cast<double>(out.deploy.size()),
                  n(out.deploy) + " deploys"});
    print_metric({"deploy_p50_ms", "ms", percentile_ms(out.deploy, 0.50),
                  n(out.deploy)});
    print_metric({"deploy_p99_ms", "ms", percentile_ms(out.deploy, 0.99),
                  n(out.deploy)});
    print_metric({"handover_p50_ms", "ms", percentile_ms(out.handover, 0.50),
                  n(out.handover)});
    print_metric({"handover_p95_ms", "ms", percentile_ms(out.handover, 0.95),
                  n(out.handover)});
  }
  if (!out.fetch.empty()) {
    print_metric({"deploy_ms", "ms", percentile_ms(out.deploy, 0.50),
                  n(out.deploy)});
    print_metric({"fetch_p50_ms", "ms", percentile_ms(out.fetch, 0.50),
                  n(out.fetch)});
    print_metric({"fetch_p99_ms", "ms", percentile_ms(out.fetch, 0.99),
                  n(out.fetch)});
    print_metric({"goodput_mbps", "Mbit/s",
                  static_cast<double>(out.goodput_bytes) * 8.0 /
                      (static_cast<double>(out.traffic_window) / 1e9) / 1e6,
                  "over " + pvn::format_duration(out.traffic_window)});
    print_metric({"pii_posts_blocked", "count",
                  static_cast<double>(out.blocked), "blocked by design"});
  }
  print_metric({"ops_failed_frac", "ratio",
                out.attempted == 0 ? 0.0
                                   : static_cast<double>(out.failed) /
                                         static_cast<double>(out.attempted),
                std::to_string(out.failed) + " of " +
                    std::to_string(out.attempted) + " ops per rep"});

  if (!args.trace) {
    print_json(correct, attempted, failed, e2e);
    return correct ? 0 : 1;
  }

  // --- per-layer (traced reps) --------------------------------------------
  std::map<std::string, std::vector<double>> values;
  std::vector<Metric> layers;
  const Rep* last_traced = nullptr;
  for (const Rep& r : measured) {
    if (!r.traced) continue;
    last_traced = &r;
    for (const Metric& m : r.layers) {
      if (values[m.name].empty()) layers.push_back(m);
      values[m.name].push_back(m.value);
    }
  }
  for (Metric& m : layers) m.value = median(values[m.name]);
  const double traced_s = median(traced_wall);
  layers.push_back({"util.sim.events_per_s", "1/s",
                    static_cast<double>(out.events) / wall_s,
                    "per untraced wall second"});
  layers.push_back({"telemetry.trace_overhead_pct", "%",
                    100.0 * (traced_s / wall_s - 1.0),
                    "traced against untraced wall time"});
  std::printf("per-layer (medians over %zu traced reps; tracing overhead is "
              "the traced wall time %.6g s against the untraced %.6g s):\n",
              traced_wall.size(), traced_s, wall_s);
  for (const Metric& m : layers) print_metric(m);
  const double total_ms = last_traced->wall_s * 1e3;
  std::printf("reconciliation of the last traced rep: self time per layer "
              "plus the unattributed remainder = the traced wall time "
              "(tolerance: unattributed <= %.0f%%)\n",
              100.0 * kUnattributedTolerance);
  for (const SelfTime& s : last_traced->self_times) {
    std::printf("  %-52s %10.3f ms  %5.1f%% of %.3f ms\n", s.layer.c_str(),
                s.ms, 100.0 * s.ms / total_ms, total_ms);
  }
  print_json(correct, attempted, failed, layers);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pvnbench

int main(int argc, char** argv) {
  pvnbench::Args args;
  if (!pvnbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: pvnbench --workload <fleet_churn|chain_web|tunnel_mix>"
                 " --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  return pvnbench::run(args);
}

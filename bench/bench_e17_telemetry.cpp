// E17 — Telemetry self-bench: the observability layer must not perturb the
// system it observes.
//
// Measures:
//   1. hot-path overhead: events/s through the simulator with the same
//      per-event work the instrumented link delivery path does, with and
//      without its telemetry mutations (acceptance: within 3%),
//   2. per-operation costs of the telemetry primitives (counter inc, gauge
//      set, histogram observe, span open/close, instant),
//   3. the simulator profiler's per-category attribution on a full
//      control-plane scenario (deploy -> mbox crash -> tunnel failover ->
//      recovery) that also populates every layer's metrics and the span
//      ring, which are then exported and cross-checked by the
//      TelemetryAuditor.
//
// Prints BENCH_telemetry.json (override with PVN_BENCH_JSON).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "audit/telemetry_check.h"
#include "common.h"
#include "proto/http.h"
#include "telemetry/export.h"
#include "testbed/testbed.h"

using namespace pvn;

namespace {

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Runs `n` self-chaining simulator events, each performing `per_event`, and
// returns the measured events/s (best of one run; callers repeat).
template <typename Fn>
double run_ticks(std::uint64_t n, Fn&& per_event) {
  Simulator sim;
  std::uint64_t remaining = n;
  std::function<void()> tick = [&] {
    per_event();
    if (--remaining > 0) sim.schedule_after(1, SimCategory::kLink, tick);
  };
  sim.schedule_after(1, SimCategory::kLink, tick);
  const double t0 = now_sec();
  sim.run();
  const double t1 = now_sec();
  return static_cast<double>(n) / (t1 - t0);
}

struct OverheadResult {
  double base_events_per_sec = 0.0;
  double instrumented_events_per_sec = 0.0;
  double overhead_pct = 0.0;
};

OverheadResult measure_overhead(std::uint64_t n, int reps) {
  // The same shape of background work a delivery callback does, plus the
  // exact mutations the link hot path gained: two counter increments and a
  // gauge store against pre-registered cells.
  auto& reg = telemetry::MetricsRegistry::global();
  telemetry::Counter& pkts = reg.counter("bench.overhead.packets");
  telemetry::Counter& bytes = reg.counter("bench.overhead.bytes");
  telemetry::Gauge& queued = reg.gauge("bench.overhead.queued");

  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  auto work = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  };
  auto instrumented = [&] {
    work();
    pkts.inc();
    bytes.inc(1500);
    queued.set(static_cast<std::int64_t>(x & 0xFFFF));
  };
  // Warm-up pass of each variant: primes caches, branch predictors, and
  // the CPU governor before anything is measured.
  run_ticks(n, work);
  run_ticks(n, instrumented);
  // Paired, interleaved runs so frequency drift and co-tenant noise hit
  // both variants alike; the median (not the max) of the reps decides, so
  // one outlier run cannot flip the gate.
  std::vector<double> base_rates;
  std::vector<double> inst_rates;
  for (int i = 0; i < reps; ++i) {
    base_rates.push_back(run_ticks(n, work));
    inst_rates.push_back(run_ticks(n, instrumented));
  }
  if (x == 0) std::printf("(unreachable)\n");  // keep `work` observable
  OverheadResult r;
  r.base_events_per_sec = bench::median(base_rates);
  r.instrumented_events_per_sec = bench::median(inst_rates);
  r.overhead_pct = 100.0 *
                   (r.base_events_per_sec - r.instrumented_events_per_sec) /
                   r.base_events_per_sec;
  return r;
}

struct OpCosts {
  double counter_inc_ns = 0.0;
  double gauge_set_ns = 0.0;
  double histogram_observe_ns = 0.0;
  double span_pair_ns = 0.0;
  double instant_ns = 0.0;
};

OpCosts measure_op_costs(std::uint64_t iters) {
  OpCosts c;
  auto& reg = telemetry::MetricsRegistry::global();
  telemetry::Counter& counter = reg.counter("bench.ops.counter");
  telemetry::Gauge& gauge = reg.gauge("bench.ops.gauge");
  telemetry::Histogram& hist =
      reg.histogram("bench.ops.hist", "", telemetry::latency_bounds_ns());

  double t0 = now_sec();
  for (std::uint64_t i = 0; i < iters; ++i) counter.inc();
  c.counter_inc_ns = (now_sec() - t0) * 1e9 / static_cast<double>(iters);

  t0 = now_sec();
  for (std::uint64_t i = 0; i < iters; ++i) {
    gauge.set(static_cast<std::int64_t>(i));
  }
  c.gauge_set_ns = (now_sec() - t0) * 1e9 / static_cast<double>(iters);

  t0 = now_sec();
  for (std::uint64_t i = 0; i < iters; ++i) hist.observe(i * 977);
  c.histogram_observe_ns = (now_sec() - t0) * 1e9 / static_cast<double>(iters);

  // Spans allocate strings per record; measure against a private recorder so
  // the global ring keeps the scenario's records.
  telemetry::SpanRecorder rec(1024);
  const std::uint64_t span_iters = std::max<std::uint64_t>(iters / 16, 1);
  t0 = now_sec();
  for (std::uint64_t i = 0; i < span_iters; ++i) {
    telemetry::Span s = rec.start("bench", "bench", "dev");
    s.finish();
  }
  c.span_pair_ns = (now_sec() - t0) * 1e9 / static_cast<double>(span_iters);

  t0 = now_sec();
  for (std::uint64_t i = 0; i < span_iters; ++i) {
    rec.instant("bench", "bench", "dev");
  }
  c.instant_ns = (now_sec() - t0) * 1e9 / static_cast<double>(span_iters);
  return c;
}

// The E16-style failover scenario: exercises links, the switch pipeline,
// the middlebox chain, the PVN control plane (with spans), the device
// tunnel, and the fault injector — every layer the exporters must cover.
SimProfile run_scenario() {
  TestbedConfig cfg;
  cfg.lease_duration = seconds(2);
  Testbed tb(cfg);
  tb.net.sim().enable_profiling(true);

  ClientConfig ccfg;
  ccfg.constraints.required_modules = {"tls-validator"};
  ccfg.session.fallback_retry = seconds(1);
  PvnClient agent(*tb.client, tb.standard_pvnc(), ccfg);
  agent.set_fallback(tb.device_tunnel.get());
  agent.start_session(tb.addrs.control);

  // Crash the middlebox host mid-session (covers fault + failover +
  // tunnel), restart it later (covers recovery + redeploy).
  tb.net.sim().schedule_at(seconds(3), SimCategory::kFault,
                           [&] { tb.mbox_host->crash(); });
  tb.net.sim().schedule_at(seconds(8), SimCategory::kFault,
                           [&] { tb.mbox_host->restart(); });
  tb.faults->link_flap(*tb.access_link, seconds(12), milliseconds(200));

  // HTTP fetches while the PVN is active (traffic through the chain) and
  // while on the fallback tunnel (traffic through the device tunnel).
  HttpClient http(*tb.client);
  const auto fetch = [&](SimTime at) {
    tb.net.sim().schedule_at(at, SimCategory::kWorkload, [&] {
      http.fetch(tb.addrs.web, 80, "/bytes/20000",
                 [](const HttpResponse&, const FetchTiming&) {});
    });
  };
  fetch(seconds(1));   // active: through the deployed chain
  fetch(seconds(4));   // fallback: through the device tunnel
  fetch(seconds(10));  // recovered: through the redeployed chain
  tb.net.sim().run_until(seconds(20));
  agent.stop_session();
  return tb.net.sim().profile();
}

std::string json_bool(bool b) { return b ? "true" : "false"; }

}  // namespace

int main(int argc, char** argv) {
  pvn::bench::TelemetryScope telemetry(argc, argv);
  bool quick = false;
  const char* env_quick = std::getenv("PVN_BENCH_QUICK");
  if (env_quick != nullptr && std::strcmp(env_quick, "0") != 0) quick = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  bench::title("E17 telemetry overhead + coverage",
               "the observability layer is cheap enough to leave on: "
               "instrumented event dispatch within 3% of uninstrumented, "
               "and one scenario populates metrics/spans in every layer");

  const std::uint64_t tick_n = quick ? 200'000 : 2'000'000;
  const int reps = quick ? 3 : 5;
  const OverheadResult oh = measure_overhead(tick_n, reps);
  const OpCosts ops = measure_op_costs(quick ? 1'000'000 : 10'000'000);

  bench::header({"metric", "value"});
  bench::row("events/s (base)", oh.base_events_per_sec);
  bench::row("events/s (instrumented)", oh.instrumented_events_per_sec);
  bench::row("overhead (%)", oh.overhead_pct);
  bench::row("counter inc (ns)", ops.counter_inc_ns);
  bench::row("gauge set (ns)", ops.gauge_set_ns);
  bench::row("histogram observe (ns)", ops.histogram_observe_ns);
  bench::row("span open+close (ns)", ops.span_pair_ns);
  bench::row("instant (ns)", ops.instant_ns);

  // Scenario: populate every layer, profile the event loop.
  const SimProfile profile = run_scenario();
  const telemetry::MetricsSnapshot snap =
      telemetry::MetricsRegistry::global().snapshot();

  const struct {
    const char* layer;
    const char* probe;  // a counter the scenario must make nonzero
  } kLayers[] = {
      {"netsim", "netsim.link.delivered_packets"},
      {"sdn", "sdn.switch.packets_in"},
      {"mbox", "mbox.chain.packets"},
      {"pvn", "pvn.client.discovery_rounds"},
      {"tunnel", "tunnel.device.tunneled"},
  };
  std::printf("\n");
  bench::header({"layer", "probe counter", "total"});
  bool all_layers = true;
  for (const auto& l : kLayers) {
    const std::uint64_t total = snap.counter_total(l.probe);
    bench::row(l.layer, l.probe, total);
    if (total == 0) all_layers = false;
  }

  // Auditor cross-check: the layers' accounts of the same run must agree.
  const TelemetryAuditor auditor;
  const std::vector<TelemetryFinding> findings =
      auditor.check_dataplane_consistency(snap);
  for (const TelemetryFinding& f : findings) {
    std::printf("AUDIT %s: %s\n", f.check.c_str(), f.detail.c_str());
  }

  std::printf("\nprofiler attribution:\n");
  bench::header({"category", "events", "wall ms"});
  for (std::size_t c = 0; c < kSimCategoryCount; ++c) {
    const auto& e = profile.by_category[c];
    if (e.events == 0) continue;
    bench::row(to_string(static_cast<SimCategory>(c)), e.events,
               static_cast<double>(e.wall_ns) / 1e6);
  }

  if (telemetry.enabled()) {
    telemetry::export_telemetry(telemetry.dir(),
                                telemetry::MetricsRegistry::global(),
                                telemetry::SpanRecorder::global(), &profile);
  }

  const bool within = oh.overhead_pct <= 3.0;
  const char* json_path = std::getenv("PVN_BENCH_JSON");
  if (json_path == nullptr) json_path = "BENCH_telemetry.json";
  FILE* f = std::fopen(json_path, "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"e17_telemetry\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", json_bool(quick).c_str());
    std::fprintf(f, "  \"events_per_sec_uninstrumented\": %.0f,\n",
                 oh.base_events_per_sec);
    std::fprintf(f, "  \"events_per_sec_instrumented\": %.0f,\n",
                 oh.instrumented_events_per_sec);
    std::fprintf(f, "  \"overhead_pct\": %.3f,\n", oh.overhead_pct);
    std::fprintf(f, "  \"overhead_within_3pct\": %s,\n",
                 json_bool(within).c_str());
    std::fprintf(f, "  \"counter_inc_ns\": %.3f,\n", ops.counter_inc_ns);
    std::fprintf(f, "  \"gauge_set_ns\": %.3f,\n", ops.gauge_set_ns);
    std::fprintf(f, "  \"histogram_observe_ns\": %.3f,\n",
                 ops.histogram_observe_ns);
    std::fprintf(f, "  \"span_pair_ns\": %.3f,\n", ops.span_pair_ns);
    std::fprintf(f, "  \"instant_ns\": %.3f,\n", ops.instant_ns);
    std::fprintf(f, "  \"metrics_registered\": %zu,\n",
                 telemetry::MetricsRegistry::global().size());
    std::fprintf(f, "  \"spans_recorded\": %llu,\n",
                 static_cast<unsigned long long>(
                     telemetry::SpanRecorder::global().total_recorded()));
    std::fprintf(f, "  \"all_layers_covered\": %s,\n",
                 json_bool(all_layers).c_str());
    std::fprintf(f, "  \"audit_findings\": %zu,\n", findings.size());
    std::fprintf(f, "  \"profile\": {");
    bool first = true;
    for (std::size_t c = 0; c < kSimCategoryCount; ++c) {
      const auto& e = profile.by_category[c];
      if (e.events == 0) continue;
      std::fprintf(f, "%s\n    \"%s\": {\"events\": %llu, \"wall_ns\": %llu}",
                   first ? "" : ",", to_string(static_cast<SimCategory>(c)),
                   static_cast<unsigned long long>(e.events),
                   static_cast<unsigned long long>(e.wall_ns));
      first = false;
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }

  std::printf("\noverhead within 3%%: %s; layers covered: %s\n",
              within ? "yes" : "NO", all_layers ? "yes" : "NO");
  // Acceptance gates: fail loudly so CI catches a regression.
  return (within && all_layers && findings.empty()) ? 0 : 1;
}

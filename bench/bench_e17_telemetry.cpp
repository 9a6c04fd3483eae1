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

// Runs `n` self-chaining simulator events, each performing `per_event`,
// timed on the thread's CPU clock.
template <typename Fn>
bench::AbSample run_ticks(std::uint64_t n, Fn&& per_event) {
  Simulator sim;
  std::uint64_t remaining = n;
  std::function<void()> tick = [&] {
    per_event();
    if (--remaining > 0) sim.schedule_after(1, SimCategory::kLink, tick);
  };
  sim.schedule_after(1, SimCategory::kLink, tick);
  const double t0 = bench::thread_cpu_seconds();
  sim.run();
  return {static_cast<double>(n), bench::thread_cpu_seconds() - t0};
}

bench::AbResult measure_overhead(std::uint64_t n) {
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
  const bench::AbResult r =
      bench::ab_compare([&] { return run_ticks(n, work); },
                        [&] { return run_ticks(n, instrumented); },
                        bench::kAbPairs);
  if (x == 0) std::printf("(unreachable)\n");  // keep `work` observable
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

}  // namespace

int main(int argc, char** argv) {
  pvn::bench::TelemetryScope telemetry(argc, argv);
  const bool quick = bench::quick_mode(argc, argv);

  bench::title("E17 telemetry overhead + coverage",
               "the observability layer is cheap enough to leave on: "
               "instrumented event dispatch within 3% of uninstrumented, "
               "and one scenario populates metrics/spans in every layer");

  const std::uint64_t tick_n = quick ? 200'000 : 2'000'000;
  const bench::AbResult oh = measure_overhead(tick_n);
  const OpCosts ops = measure_op_costs(quick ? 1'000'000 : 10'000'000);

  bench::header({"metric", "value"});
  bench::row("events/s (base)", oh.base_rate);
  bench::row("events/s (instrumented)", oh.variant_rate);
  bench::row("overhead (%)", oh.overhead_pct());
  bench::row("overhead IQR (%)", oh.ratio_iqr * 100.0);
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

  telemetry.set_profile(profile);

  const bool within = oh.overhead_pct() <= 3.0;
  bench::JsonWriter json;
  json.begin_object()
      .field("bench", "e17_telemetry")
      .field("quick", quick)
      .field("events_per_sec_uninstrumented", oh.base_rate, 0)
      .field("events_per_sec_instrumented", oh.variant_rate, 0)
      .field("overhead_pct", oh.overhead_pct(), 3)
      .field("overhead_iqr_pct", oh.ratio_iqr * 100.0, 3)
      .field("overhead_within_3pct", within)
      .field("counter_inc_ns", ops.counter_inc_ns, 3)
      .field("gauge_set_ns", ops.gauge_set_ns, 3)
      .field("histogram_observe_ns", ops.histogram_observe_ns, 3)
      .field("span_pair_ns", ops.span_pair_ns, 3)
      .field("instant_ns", ops.instant_ns, 3)
      .field("metrics_registered", telemetry::MetricsRegistry::global().size())
      .field("spans_recorded",
             telemetry::SpanRecorder::global().total_recorded())
      .field("all_layers_covered", all_layers)
      .field("audit_findings", findings.size())
      .begin_object("profile");
  for (std::size_t c = 0; c < kSimCategoryCount; ++c) {
    const auto& e = profile.by_category[c];
    if (e.events == 0) continue;
    json.begin_object(to_string(static_cast<SimCategory>(c)))
        .field("events", e.events)
        .field("wall_ns", e.wall_ns)
        .end_object();
  }
  json.end_object().end_object();
  const bool wrote = bench::write_json(json, "BENCH_telemetry.json");

  std::printf("\noverhead within 3%%: %s; layers covered: %s\n",
              within ? "yes" : "NO", all_layers ? "yes" : "NO");
  // Acceptance gates: fail loudly so CI catches a regression.
  return (wrote && within && all_layers && findings.empty()) ? 0 : 1;
}

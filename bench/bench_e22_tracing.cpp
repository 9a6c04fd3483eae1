// E22 — Causal tracing + SLO health plane bench: observability must be
// cheap, must account for the latencies it explains, and must report the
// same story at every shard count.
//
// Three gates, each a hard exit-code failure:
//   1. Overhead: the full observability stack — flight recorder, windowed
//      HealthMonitor evaluation at time barriers, span recording, and trace
//      assembly — attached to the shared dataplane workload (dataplane.h)
//      must cost < 5% in events per thread-CPU second (bench::ab_compare:
//      the median of paired ratios) and must be passive (identical delivery
//      digest with and without it).
//   2. Critical path vs wall: the assembled deploy-cycle and migration
//      traces must account for the independently measured end-to-end times.
//      critical_total() == trace interval holds by construction (the
//      critical path partitions the interval); the gate cross-checks that
//      interval against the client's own wall measurement.
//   3. get-alerts / get-trace shard-consistency: the same scripted SLO
//      story (slow deploys, a retransmission burst that fires and then
//      clears, one cross-node deploy trace) served through the audited ops
//      verbs must produce byte-identical digests on a 4-shard and a 1-shard
//      run, with the wire digest matching a recomputation over the carried
//      payload.
//
// Prints BENCH_tracing.json (override with PVN_BENCH_JSON). Quick mode
// (PVN_BENCH_QUICK=1 or --quick) is only recorded in the summary: every
// gate already runs at a size CI can afford.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "dataplane.h"
#include "ops/client.h"
#include "ops/endpoint.h"
#include "ops/flight_recorder.h"
#include "ops/health.h"
#include "proto/ops.h"
#include "telemetry/assembler.h"
#include "telemetry/span.h"
#include "testbed/roaming.h"
#include "testbed/testbed.h"

using namespace pvn;

namespace {

// --- gate 1: observability overhead ------------------------------------------

struct OverheadResult {
  bench::AbResult ab;   // events/s with the stack (B) over without (A)
  bool passive = true;  // every run's delivery digest matched the first's
  std::size_t windows_closed = 0;
  std::size_t chrome_bytes = 0;
};

OverheadResult measure_overhead() {
  const int flows = 32;
  const int packets = 1000;
  OverheadResult r;
  std::optional<std::uint64_t> reference;
  const auto run = [&](bool observability) {
    bench::DataplaneScenario sc(/*shards=*/1, flows, packets,
                                /*with_admin=*/false);
    sc.net.shards().enable_time_barriers();
    FlightRecorder rec;
    HealthMonitorConfig hcfg;
    hcfg.window = milliseconds(5);
    HealthMonitor health(hcfg);
    for (HealthRule& rule : HealthMonitor::default_rules()) {
      health.add_rule(std::move(rule));
    }
    telemetry::SpanRecorder& spans = telemetry::SpanRecorder::global();
    spans.clear();  // isolate runs: assembly cost must not grow across runs
    spans.set_clock(&sc.net.sim());
    if (observability) rec.attach(sc.net);
    // Both variants register the identical barrier schedule so the paired
    // comparison isolates the observability work, not the barrier plumbing.
    for (SimTime t = milliseconds(5); t <= milliseconds(80);
         t += milliseconds(5)) {
      sc.net.shards().at_time_barrier(t, [&spans, &health, t, observability] {
        if (!observability) return;
        telemetry::Span tick = spans.start("health_tick", "ops", "",
                                           spans.new_trace(), "monitor");
        health.evaluate(t);
        tick.finish();
      });
    }
    const double t0 = bench::thread_cpu_seconds();
    const std::size_t events = sc.net.run_parallel();
    if (observability) {
      // Assembly is part of what an operator pays for: include it in the
      // measured interval.
      const telemetry::TraceAssembler assembler(spans);
      r.chrome_bytes =
          telemetry::TraceAssembler::chrome_json(assembler.traces()).size();
      r.windows_closed = health.windows_closed();
    }
    const double cpu = bench::thread_cpu_seconds() - t0;
    const std::uint64_t digest = sc.digest();
    if (!reference.has_value()) reference = digest;
    r.passive = r.passive && digest == *reference;
    return bench::AbSample{static_cast<double>(events), cpu};
  };
  r.ab = bench::ab_compare([&] { return run(false); },
                           [&] { return run(true); }, bench::kAbPairs);
  return r;
}

// --- gate 2: critical path accounts for measured wall times ------------------

struct PathResult {
  bool ok = false;           // the underlying operation succeeded
  bool partition_ok = false; // critical segments sum to the trace interval
  double wall_ms = 0;        // client-measured end-to-end time
  double trace_ms = 0;       // assembled trace interval (== critical sum)
  double delta_pct = 0;      // |trace - wall| / wall
  std::size_t spans = 0;
  std::size_t nodes = 0;
};

PathResult finish_path(const DeployOutcome& outcome, SimDuration wall,
                       const std::string& session) {
  PathResult r;
  r.ok = outcome.ok;
  const telemetry::TraceAssembler assembler(telemetry::SpanRecorder::global());
  const auto t = assembler.latest_for_session(session);
  if (!t.has_value()) return r;
  r.partition_ok = t->critical_total() == t->end - t->start;
  r.wall_ms = static_cast<double>(wall) / 1e6;
  r.trace_ms = static_cast<double>(t->critical_total()) / 1e6;
  r.delta_pct = r.wall_ms > 0
                    ? 100.0 * (r.trace_ms - r.wall_ms) / r.wall_ms
                    : 100.0;
  if (r.delta_pct < 0) r.delta_pct = -r.delta_pct;
  r.spans = t->spans.size();
  std::vector<std::string> nodes;
  for (const telemetry::SpanRecord& s : t->spans) {
    if (s.node.empty()) continue;
    bool seen = false;
    for (const std::string& n : nodes) seen |= n == s.node;
    if (!seen) nodes.push_back(s.node);
  }
  r.nodes = nodes.size();
  return r;
}

PathResult measure_deploy_path() {
  telemetry::SpanRecorder::global().clear();
  Testbed tb;
  const DeployOutcome outcome = tb.deploy(tb.standard_pvnc());
  return finish_path(outcome, outcome.elapsed, "alice-phone");
}

PathResult measure_migration_path() {
  telemetry::SpanRecorder::global().clear();
  RoamingTestbed tb;
  PvnClient agent(*tb.client, tb.roaming_pvnc());
  agent.start_session(tb.addrs.control_a);
  tb.net.sim().run_until(seconds(1));
  if (agent.state() != SessionState::kActive) return {};

  tb.re_attach();
  DeployOutcome outcome;
  SimTime started = 0, switched = 0;
  tb.net.sim().schedule_at(seconds(2), [&] {
    started = tb.net.sim().now();
    agent.migrate(tb.addrs.control_b, milliseconds(300),
                  [&](const DeployOutcome& o) { outcome = o; });
  });
  // The migration story ends at the make-before-break switchover (the old
  // session tears down after the drain), which the client counts. Sample at
  // 2 ms granularity — well inside the gate tolerance.
  for (SimTime t = seconds(2); t <= seconds(6); t += milliseconds(2)) {
    tb.net.sim().schedule_at(t, [&agent, &switched, t] {
      if (switched == 0 && agent.migrations() > 0) switched = t;
    });
  }
  tb.net.sim().run_until(seconds(8));
  if (!outcome.ok || switched == 0) return {};
  return finish_path(outcome, switched - started, tb.roaming_pvnc().name);
}

// --- gate 3: get-alerts / get-trace shard consistency ------------------------

// The same scripted SLO story at every shard count: nine slow deploys (p99
// breaches from the second window on), a retransmission burst that fires the
// rate rule and then clears (hysteresis visible in the digest), and one
// cross-node deploy trace for "alice-phone". A light dataplane load keeps
// all shards busy while the verbs are served.
struct HealthScenario {
  explicit HealthScenario(std::size_t shards)
      : inner(shards, /*flows=*/8, /*packets_per_flow=*/100,
              /*with_admin=*/true) {
    inner.net.shards().enable_time_barriers();

    health = std::make_unique<HealthMonitor>();
    for (HealthRule& rule : HealthMonitor::default_rules()) {
      health->add_rule(std::move(rule));
    }
    inner.endpoint->set_health_monitor(health.get());
    inner.endpoint->set_span_recorder(&telemetry::SpanRecorder::global());

    Simulator& sim0 = inner.net.shards().shard(0);
    telemetry::SpanRecorder& rec = telemetry::SpanRecorder::global();
    rec.clear();  // trace/span ids restart at 1: reproducible across runs
    rec.set_clock(&sim0);
    auto& reg = telemetry::MetricsRegistry::global();

    // Nine slow deploys, 150 ms each, one per 100 ms starting mid-window.
    for (int k = 0; k < 9; ++k) {
      sim0.schedule_at(milliseconds(130 + 100 * k), SimCategory::kPvnControl,
                       [&reg] {
                         reg.histogram("pvn.client.deploy_latency_ns",
                                       telemetry::latency_bounds_ns())
                             .observe(150'000'000ull);
                       });
    }
    // Retransmission bursts in two consecutive windows: fires at the 600 ms
    // close (min_windows=2), clears by the 1000 ms close.
    for (const SimTime at : {milliseconds(230), milliseconds(430)}) {
      sim0.schedule_at(at, SimCategory::kPvnControl, [&reg] {
        reg.counter("pvn.client.deploy_retransmissions").inc(5);
      });
    }
    // One deploy trace crossing three nodes.
    sim0.schedule_at(milliseconds(300), SimCategory::kPvnControl, [this, &rec] {
      cycle = rec.start("deploy_cycle", "pvn", "alice-phone", rec.new_trace(),
                        "client");
    });
    sim0.schedule_at(milliseconds(310), SimCategory::kPvnControl, [this, &rec] {
      server_span = rec.start("server_deploy", "pvn", "alice-phone",
                              cycle.context(), "control");
    });
    sim0.schedule_at(milliseconds(350), SimCategory::kPvnControl, [this, &rec] {
      rec.instant("mbox_instantiate", "pvn", "alice-phone",
                  server_span.context(), "mbox");
    });
    sim0.schedule_at(milliseconds(380), SimCategory::kPvnControl,
                     [this] { server_span.finish(); });
    sim0.schedule_at(milliseconds(400), SimCategory::kPvnControl,
                     [this] { cycle.finish(); });

    // Periodic health evaluation at barrier cuts, as the testbed wires it.
    for (SimTime t = milliseconds(200); t <= milliseconds(1000);
         t += milliseconds(200)) {
      inner.net.shards().at_time_barrier(t, [this, t] { health->evaluate(t); });
    }
  }

  bench::DataplaneScenario inner;
  std::unique_ptr<HealthMonitor> health;
  telemetry::Span cycle, server_span;
};

struct ConsistencyRun {
  bool replied = false;
  std::uint32_t shard_count = 0;
  SimTime barrier_time = 0;
  std::size_t alert_count = 0;
  std::size_t firing = 0;
  std::uint64_t alerts_digest = 0;
  bool alerts_wire_ok = false;  // carried digest matches recomputation
  bool trace_found = false;
  std::size_t trace_spans = 0;
  std::size_t critical_segments = 0;
  std::uint64_t trace_digest = 0;
  bool trace_wire_ok = false;
};

ConsistencyRun run_consistency(std::size_t shards) {
  HealthScenario sc(shards);
  std::optional<OpsAlertsReply> alerts;
  std::optional<OpsTraceReply> trace;
  sc.inner.net.shards().shard(0).schedule_at(
      milliseconds(1050), SimCategory::kPvnControl, [&sc, &alerts, &trace] {
        sc.inner.client->request_alerts(
            [&alerts](const OpsAlertsReply& r) { alerts = r; });
        sc.inner.client->request_causal_trace(
            "alice-phone", [&trace](const OpsTraceReply& r) { trace = r; });
      });
  sc.inner.net.run_parallel_until(milliseconds(1300));
  sc.inner.net.run_parallel();

  ConsistencyRun out;
  if (!alerts.has_value() || !trace.has_value()) return out;
  out.replied = true;
  out.shard_count = alerts->shard_count;
  out.barrier_time = alerts->barrier_time;
  out.alert_count = alerts->alerts.size();
  for (const OpsAlert& a : alerts->alerts) out.firing += a.firing != 0;
  out.alerts_digest = alerts->digest;
  out.alerts_wire_ok = alerts->digest == ops_alerts_digest(alerts->alerts);
  out.trace_found = trace->found != 0;
  out.trace_spans = trace->spans.size();
  out.critical_segments = trace->critical.size();
  out.trace_digest = trace->digest;
  out.trace_wire_ok =
      trace->digest == ops_trace_digest(trace->trace_id, trace->session,
                                        trace->start, trace->end,
                                        trace->spans, trace->critical);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::TelemetryScope telemetry(argc, argv);
  const bool quick = bench::quick_mode(argc, argv);

  bench::title("E22 — causal tracing + health plane",
               "observability must cost < 5%, explain the latencies it "
               "reports, and tell one story at every shard count");

  // Gate 1: overhead of the full observability stack on the dataplane.
  const OverheadResult oh = measure_overhead();
  const bool overhead_within = oh.ab.overhead_pct() < 5.0;
  const bool overhead_ok = overhead_within && oh.passive;
  bench::header({"observability", "events/s", "overhead %", "IQR %",
                 "passive"});
  bench::row("off", oh.ab.base_rate, 0.0, "-", "-");
  bench::row("spans+health+recorder", oh.ab.variant_rate,
             oh.ab.overhead_pct(), oh.ab.ratio_iqr * 100.0,
             oh.passive ? "yes" : "NO");
  std::printf("health windows closed per run: %zu, chrome trace bytes: %zu\n",
              oh.windows_closed, oh.chrome_bytes);

  // Gate 2: assembled traces account for the measured wall times.
  const PathResult deploy = measure_deploy_path();
  const PathResult migration = measure_migration_path();
  const double tol_pct = 10.0;
  const bool deploy_ok = deploy.ok && deploy.partition_ok &&
                         deploy.delta_pct <= tol_pct && deploy.nodes >= 2;
  const bool migration_ok = migration.ok && migration.partition_ok &&
                            migration.delta_pct <= tol_pct &&
                            migration.nodes >= 3;
  std::printf("\n");
  bench::header({"operation", "wall ms", "critical ms", "delta %", "nodes"});
  bench::row("deploy", deploy.wall_ms, deploy.trace_ms, deploy.delta_pct,
             static_cast<int>(deploy.nodes));
  bench::row("migration", migration.wall_ms, migration.trace_ms,
             migration.delta_pct, static_cast<int>(migration.nodes));
  std::printf("critical path accounts for wall time (±%.0f%%): %s\n", tol_pct,
              deploy_ok && migration_ok ? "yes" : "NO");

  // Gate 3: the audited verbs agree across shard counts.
  const ConsistencyRun c1 = run_consistency(1);
  const ConsistencyRun c4 = run_consistency(4);
  const bool consistent =
      c1.replied && c4.replied && c1.shard_count == 1 && c4.shard_count == 4 &&
      c1.barrier_time == c4.barrier_time && c1.alert_count > 0 &&
      c1.firing > 0 && c1.firing < c1.alert_count &&  // fired AND cleared
      c1.alerts_digest == c4.alerts_digest && c1.alerts_wire_ok &&
      c4.alerts_wire_ok && c1.trace_found && c4.trace_found &&
      c1.trace_spans == c4.trace_spans && c1.trace_spans >= 3 &&
      c1.trace_digest == c4.trace_digest && c1.trace_wire_ok &&
      c4.trace_wire_ok;
  std::printf("\n");
  bench::header(
      {"shards", "alerts(firing)", "alerts digest", "spans", "trace digest"});
  bench::row(1,
             std::to_string(c1.alert_count) + "(" + std::to_string(c1.firing) +
                 ")",
             c1.alerts_digest, static_cast<std::uint64_t>(c1.trace_spans),
             c1.trace_digest);
  bench::row(4,
             std::to_string(c4.alert_count) + "(" + std::to_string(c4.firing) +
                 ")",
             c4.alerts_digest, static_cast<std::uint64_t>(c4.trace_spans),
             c4.trace_digest);
  std::printf("get-alerts/get-trace shard-consistency: %s\n",
              consistent ? "consistent" : "MISMATCH");

  bench::JsonWriter json;
  json.begin_object()
      .field("bench", "e22_tracing")
      .field("quick", quick)
      .field("events_per_sec_base", oh.ab.base_rate, 0)
      .field("events_per_sec_observed", oh.ab.variant_rate, 0)
      .field("observability_overhead_pct", oh.ab.overhead_pct(), 3)
      .field("observability_overhead_iqr_pct", oh.ab.ratio_iqr * 100.0, 3)
      .field("observability_within_5pct", overhead_within)
      .field("observability_passive", oh.passive)
      .field("deploy_wall_ms", deploy.wall_ms, 3)
      .field("deploy_critical_ms", deploy.trace_ms, 3)
      .field("deploy_delta_pct", deploy.delta_pct, 3)
      .field("deploy_path_ok", deploy_ok)
      .field("migration_wall_ms", migration.wall_ms, 3)
      .field("migration_critical_ms", migration.trace_ms, 3)
      .field("migration_delta_pct", migration.delta_pct, 3)
      .field("migration_path_ok", migration_ok)
      .field("alerts", c1.alert_count)
      .field("alerts_firing", c1.firing)
      .field("alerts_digest_1shard", c1.alerts_digest)
      .field("alerts_digest_4shard", c4.alerts_digest)
      .field("trace_spans", c1.trace_spans)
      .field("trace_digest_1shard", c1.trace_digest)
      .field("trace_digest_4shard", c4.trace_digest)
      .field("shard_consistent", consistent)
      .end_object();
  const bool wrote = bench::write_json(json, "BENCH_tracing.json");

  const bool pass =
      wrote && overhead_ok && deploy_ok && migration_ok && consistent;
  std::printf("gates: overhead %s, critical-path %s, consistency %s -> %s\n",
              overhead_ok ? "pass" : "FAIL",
              deploy_ok && migration_ok ? "pass" : "FAIL",
              consistent ? "pass" : "FAIL", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

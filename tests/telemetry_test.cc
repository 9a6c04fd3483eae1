// Tests for the telemetry subsystem: metrics registry semantics, histogram
// bucketing, span nesting + ring wraparound, golden exporter output, the
// simulator profiler, and an end-to-end check that one deployed PVN session
// populates every layer's metrics consistently (TelemetryAuditor).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "audit/telemetry_check.h"
#include "proto/http.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "testbed/testbed.h"

namespace pvn {
namespace {

using telemetry::MetricsRegistry;
using telemetry::SpanRecord;
using telemetry::SpanRecorder;

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistry, RegistrationIsIdempotent) {
  MetricsRegistry reg;
  telemetry::Counter& a = reg.counter("x.y.z");
  telemetry::Counter& b = reg.counter("x.y.z");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
  telemetry::Counter& c = reg.counter("x.y.z", "inst");
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, SnapshotReflectsValuesAndInstances) {
  MetricsRegistry reg;
  reg.counter("net.pkts", "a->b").inc(3);
  reg.counter("net.pkts", "b->a").inc(5);
  reg.gauge("net.queue").set(-2);

  const telemetry::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  const telemetry::MetricSample* ab = snap.find("net.pkts", "a->b");
  ASSERT_NE(ab, nullptr);
  EXPECT_EQ(ab->counter_value, 3u);
  EXPECT_EQ(snap.counter_total("net.pkts"), 8u);
  const telemetry::MetricSample* g = snap.find("net.queue");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->gauge_value, -2);
  EXPECT_EQ(snap.find("net.pkts", "nope"), nullptr);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsHandedOutCells) {
  MetricsRegistry reg;
  telemetry::Counter& c = reg.counter("a.b");
  c.inc(7);
  reg.reset();
  EXPECT_EQ(reg.size(), 1u);  // registration survives
  EXPECT_EQ(c.value(), 0u);
  c.inc();  // the pre-reset reference still points at the live cell
  EXPECT_EQ(reg.snapshot().counter_total("a.b"), 1u);
}

TEST(MetricsRegistry, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

// --- Tally -------------------------------------------------------------------

TEST(Tally, EachCountsItsOwnEventsAndTheCellHoldsTheSum) {
  const telemetry::Counter& cell =
      MetricsRegistry::global().counter("test.tally.sum", "k");
  const std::uint64_t before = cell.value();
  telemetry::Tally a("test.tally.sum", "k");
  telemetry::Tally b("test.tally.sum", "k");
  a.inc();
  b.inc(5);
  a.inc(2);
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(b.value(), 5u);
  EXPECT_EQ(cell.value() - before, 8u);
}

TEST(Tally, RegistryResetZeroesTheCellButNotTheValue) {
  const telemetry::Counter& cell =
      MetricsRegistry::global().counter("test.tally.reset");
  telemetry::Tally t("test.tally.reset");
  t.inc(4);
  MetricsRegistry::global().reset();
  EXPECT_EQ(cell.value(), 0u);
  EXPECT_EQ(t.value(), 4u);
  t.inc();
  EXPECT_EQ(cell.value(), 1u);
  EXPECT_EQ(t.value(), 5u);
}

TEST(Tally, ACopyCountsIntoTheSameCell) {
  const telemetry::Counter& cell =
      MetricsRegistry::global().counter("test.tally.copy");
  const std::uint64_t before = cell.value();
  telemetry::Tally a("test.tally.copy");
  a.inc(2);
  telemetry::Tally b = a;
  b.inc(3);
  EXPECT_EQ(a.value(), 2u);
  EXPECT_EQ(b.value(), 5u);
  EXPECT_EQ(cell.value() - before, 5u);
}

// --- Histogram ---------------------------------------------------------------

TEST(Histogram, BoundsAreInclusiveUpperWithOverflowBucket) {
  telemetry::Histogram h({10, 20});
  h.observe(10);  // lands in <=10
  h.observe(11);  // lands in <=20
  h.observe(20);  // lands in <=20
  h.observe(21);  // overflow
  EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{1, 2, 1}));
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 62u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.bounds().size(), 2u);  // bounds survive reset
}

TEST(Histogram, FirstRegistrationFixesBounds) {
  MetricsRegistry reg;
  telemetry::Histogram& a = reg.histogram("h", {1, 2, 3});
  telemetry::Histogram& b = reg.histogram("h", {99});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.bounds(), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(Histogram, LatencyBoundsAreAscending) {
  const std::vector<std::uint64_t> bounds = telemetry::latency_bounds_ns();
  ASSERT_GE(bounds.size(), 2u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

// --- Spans -------------------------------------------------------------------

TEST(Span, DepthTracksNestingPerSession) {
  SpanRecorder rec(16);
  telemetry::Span outer = rec.start("cycle", "pvn", "dev-1");
  telemetry::Span inner = rec.start("phase", "pvn", "dev-1");
  telemetry::Span other = rec.start("cycle", "pvn", "dev-2");
  inner.finish();
  telemetry::Span inner2 = rec.start("phase2", "pvn", "dev-1");
  inner2.finish();
  other.finish();
  outer.finish();

  const std::vector<SpanRecord> records = rec.records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].depth, 0);  // cycle (dev-1)
  EXPECT_EQ(records[1].depth, 1);  // phase nested under cycle
  EXPECT_EQ(records[2].depth, 0);  // dev-2 has its own depth
  EXPECT_EQ(records[3].depth, 1);  // phase2 reuses the freed depth slot
}

TEST(Span, InstantIsZeroDuration) {
  SpanRecorder rec(4);
  rec.instant("blip", "fault", "dev");
  const std::vector<SpanRecord> records = rec.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].start, records[0].end);
}

TEST(Span, RingWrapKeepsNewestRecords) {
  SpanRecorder rec(4);
  for (int i = 0; i < 6; ++i) {
    std::string name = "i";
    name += std::to_string(i);
    rec.instant(name, "t", "");
  }
  EXPECT_EQ(rec.total_recorded(), 6u);
  const std::vector<SpanRecord> records = rec.records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().name, "i2");  // oldest surviving
  EXPECT_EQ(records.back().name, "i5");
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, records[i - 1].seq + 1);
  }
}

TEST(Span, LateFinishAfterWrapLandsInEvictedList) {
  // Regression: an open span evicted by ring wrap used to vanish entirely
  // (its finish() was dropped and exports never saw it). It now moves to
  // the evicted-open side list, where a late finish() still closes it.
  SpanRecorder rec(2);
  telemetry::Span stale = rec.start("stale", "t", "");  // seq 0
  rec.instant("a", "t", "");                            // seq 1
  rec.instant("b", "t", "");  // seq 2: evicts open seq 0 to the side list
  EXPECT_EQ(rec.evicted_open(), 1u);
  stale.finish();  // ring slot holds seq 2; close happens in the side list
  const std::vector<SpanRecord> records = rec.records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].name, "stale");
  EXPECT_GE(records[0].end, records[0].start);  // closed, not lost
  EXPECT_EQ(records[1].name, "a");
  EXPECT_EQ(records[2].name, "b");
  EXPECT_EQ(records[2].end, records[2].start);  // untouched instant
}

TEST(Span, EvictedOpenListIsBoundedByCapacity) {
  SpanRecorder rec(2);
  std::vector<telemetry::Span> open;
  for (int i = 0; i < 6; ++i) {
    // Appended, not "s" + std::to_string(i): GCC 12's -Wrestrict misfires
    // on that temporary concatenation in Release builds.
    std::string name = "s";
    name += std::to_string(i);
    open.push_back(rec.start(name, "t", ""));
  }
  // 6 opens through a 2-slot ring: 4 evictions, side list capped at 2.
  EXPECT_EQ(rec.evicted_open(), 2u);
  EXPECT_LE(rec.records().size(), 2 * rec.capacity());
  open.clear();  // finishing force-closed spans must not crash or restamp
}

TEST(Span, StampsFromTheConfiguredSimulatorClock) {
  Simulator sim;
  SpanRecorder rec(8);
  rec.set_clock(&sim);
  telemetry::Span span;
  sim.schedule_at(milliseconds(5), [&] { span = rec.start("p", "pvn", "d"); });
  sim.schedule_at(milliseconds(9), [&] { span.finish(); });
  sim.run();
  const std::vector<SpanRecord> records = rec.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].start, milliseconds(5));
  EXPECT_EQ(records[0].end, milliseconds(9));
}

TEST(Span, ExportAfterClockDestructionUsesLastRecordedTime) {
  SpanRecorder rec(8);
  {
    Simulator sim;
    rec.set_clock(&sim);
    sim.schedule_at(milliseconds(7), [&] { rec.instant("i", "t", ""); });
    sim.run();
  }  // the clock dies here; exporting must not dereference it
  EXPECT_EQ(rec.last_time(), milliseconds(7));
  const std::string out = telemetry::trace_events_json(rec);
  EXPECT_NE(out.find("\"ts\": 7000.000"), std::string::npos);
}

TEST(Span, MoveTransfersOwnershipAndFinishIsIdempotent) {
  Simulator sim;
  SpanRecorder rec(8);
  rec.set_clock(&sim);
  telemetry::Span a = rec.start("s", "t", "");
  telemetry::Span b = std::move(a);
  EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): inert by design
  EXPECT_TRUE(b.active());
  a.finish();  // no-op
  sim.schedule_at(milliseconds(3), [&] { b.finish(); });
  sim.run();
  b.finish();  // second finish must not restamp
  ASSERT_EQ(rec.records().size(), 1u);
  EXPECT_EQ(rec.records()[0].end, milliseconds(3));
}

// --- Exporters (golden) ------------------------------------------------------

MetricsRegistry& golden_registry(MetricsRegistry& reg) {
  reg.counter("a.count").inc(3);
  reg.counter("a.count", "x").inc(2);
  reg.gauge("b.gauge").set(-7);
  telemetry::Histogram& h = reg.histogram("c.hist", {10, 20});
  h.observe(5);
  h.observe(15);
  h.observe(99);
  return reg;
}

TEST(Export, PrometheusTextGolden) {
  MetricsRegistry reg;
  const std::string got =
      telemetry::prometheus_text(golden_registry(reg).snapshot());
  const std::string want =
      "# HELP a_count PVN metric a.count\n"
      "# TYPE a_count counter\n"
      "a_count 3\n"
      "a_count{instance=\"x\"} 2\n"
      "# HELP b_gauge PVN metric b.gauge\n"
      "# TYPE b_gauge gauge\n"
      "b_gauge -7\n"
      "# HELP c_hist PVN metric c.hist\n"
      "# TYPE c_hist histogram\n"
      "c_hist_bucket{le=\"10\"} 1\n"
      "c_hist_bucket{le=\"20\"} 2\n"
      "c_hist_bucket{le=\"+Inf\"} 3\n"
      "c_hist_sum 119\n"
      "c_hist_count 3\n";
  EXPECT_EQ(got, want);
}

TEST(Export, PrometheusHelpAndLabelEscaping) {
  MetricsRegistry reg;
  reg.describe("ops.requests", "Admin requests seen\nby the endpoint \\ ops");
  reg.counter("ops.requests", "she said \"hi\"\\\n").inc(1);
  const std::string got = telemetry::prometheus_text(reg.snapshot());
  // HELP text escapes backslash and newline; label values additionally
  // escape double quotes (Prometheus exposition format, not JSON \uXXXX).
  const std::string want =
      "# HELP ops_requests Admin requests seen\\nby the endpoint \\\\ ops\n"
      "# TYPE ops_requests counter\n"
      "ops_requests{instance=\"she said \\\"hi\\\"\\\\\\n\"} 1\n";
  EXPECT_EQ(got, want);
}

TEST(Export, MetricsJsonGolden) {
  MetricsRegistry reg;
  const std::string got =
      telemetry::metrics_json(golden_registry(reg).snapshot());
  const std::string want =
      "{\n  \"metrics\": [\n"
      "    {\"name\": \"a.count\", \"instance\": \"\", \"kind\": \"counter\", "
      "\"value\": 3},\n"
      "    {\"name\": \"a.count\", \"instance\": \"x\", \"kind\": "
      "\"counter\", \"value\": 2},\n"
      "    {\"name\": \"b.gauge\", \"instance\": \"\", \"kind\": \"gauge\", "
      "\"value\": -7},\n"
      "    {\"name\": \"c.hist\", \"instance\": \"\", \"kind\": "
      "\"histogram\", \"bounds\": [10, 20], \"counts\": [1, 1, 1], \"sum\": "
      "119, \"count\": 3}\n"
      "  ]\n}\n";
  EXPECT_EQ(got, want);
}

TEST(Export, TraceEventsJsonGolden) {
  std::vector<SpanRecord> records(2);
  records[0] = {0, "deploy", "pvn", "dev", 1000, 3000, 0, 0, 0, 0, ""};
  records[1] = {1, "retransmit", "pvn", "dev", 2000, 2000, 1, 0, 0, 0, ""};
  const std::string got = telemetry::trace_events_json(records, 3000);
  const std::string want =
      "{\"traceEvents\": [\n"
      "  {\"name\": \"deploy\", \"cat\": \"pvn\", \"ph\": \"X\", "
      "\"ts\": 1.000, \"dur\": 2.000, \"pid\": 1, \"tid\": 1, "
      "\"args\": {\"depth\": 0}},\n"
      "  {\"name\": \"retransmit\", \"cat\": \"pvn\", \"ph\": \"i\", "
      "\"ts\": 2.000, \"pid\": 1, \"tid\": 1, \"s\": \"t\"},\n"
      "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
      "\"tid\": 1, \"args\": {\"name\": \"dev\"}}\n"
      "], \"displayTimeUnit\": \"ms\"}\n";
  EXPECT_EQ(got, want);
}

TEST(Export, OpenSpansExportAsBeginOnlyEvents) {
  // Regression: open spans used to be synthetically closed at export time,
  // which made an in-flight operation look finished. They now export as
  // "B"-phase (begin-only) events, which trace viewers render as unclosed.
  std::vector<SpanRecord> records(1);
  records[0] = {0, "open", "pvn", "", 1000, -1, 0, 0, 0, 0, ""};
  const std::string out = telemetry::trace_events_json(records, 5000);
  EXPECT_NE(out.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_EQ(out.find("\"dur\""), std::string::npos);  // no fake duration
  // The unnamed session renders as the "global" track.
  EXPECT_NE(out.find("\"name\": \"global\""), std::string::npos);
}

TEST(Export, ProfileJsonListsEveryCategory) {
  SimProfile profile;
  profile.by_category[static_cast<std::size_t>(SimCategory::kLink)] = {7, 123};
  const std::string out = telemetry::profile_json(profile);
  EXPECT_NE(out.find("\"category\": \"link\", \"events\": 7"),
            std::string::npos);
  EXPECT_NE(out.find("\"category\": \"pvn-control\""), std::string::npos);
  EXPECT_NE(out.find("\"total_events\": 7"), std::string::npos);
}

// --- Simulator profiler ------------------------------------------------------

TEST(SimProfiler, AttributesEventsToCategories) {
  Simulator sim;
  sim.enable_profiling(true);
  int ran = 0;
  for (int i = 0; i < 3; ++i) {
    sim.schedule_after(i + 1, SimCategory::kLink, [&] { ++ran; });
  }
  sim.schedule_after(10, SimCategory::kFault, [&] { ++ran; });
  sim.schedule_after(11, [&] { ++ran; });  // untagged -> kOther
  sim.run();
  EXPECT_EQ(ran, 5);
  const SimProfile& p = sim.profile();
  EXPECT_EQ(p.by_category[static_cast<std::size_t>(SimCategory::kLink)].events,
            3u);
  EXPECT_EQ(p.by_category[static_cast<std::size_t>(SimCategory::kFault)].events,
            1u);
  EXPECT_EQ(p.by_category[static_cast<std::size_t>(SimCategory::kOther)].events,
            1u);
  EXPECT_EQ(p.total_events(), 5u);
  sim.reset_profile();
  EXPECT_EQ(sim.profile().total_events(), 0u);
}

TEST(SimProfiler, CountsEventsEvenWhenTimingDisabled) {
  Simulator sim;  // profiling off: no steady_clock reads, but counts stay
  sim.schedule_after(1, SimCategory::kMbox, [] {});
  sim.run();
  EXPECT_EQ(
      sim.profile().by_category[static_cast<std::size_t>(SimCategory::kMbox)]
          .events,
      1u);
}

// --- TelemetryAuditor --------------------------------------------------------

TEST(TelemetryAuditor, FlagsMissingAndUndercountedChains) {
  const TelemetryAuditor auditor;
  MetricsRegistry reg;

  // Device holds proofs but the network reports no chain telemetry at all.
  std::vector<TelemetryFinding> findings =
      auditor.check_chain_traversals(reg.snapshot(), "chain-1", 5);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "chain-missing");

  // Network admits fewer traversals than the device verified.
  reg.counter("mbox.chain.packets", "chain-1").inc(3);
  findings = auditor.check_chain_traversals(reg.snapshot(), "chain-1", 5);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "chain-undercount");

  // Counts consistent (network may legitimately see more than the sample).
  reg.counter("mbox.chain.packets", "chain-1").inc(10);
  EXPECT_TRUE(
      auditor.check_chain_traversals(reg.snapshot(), "chain-1", 5).empty());
}

// --- End to end: one session populates every layer --------------------------

TEST(TelemetryE2E, DeployedSessionCoversEveryLayerAndPassesAudit) {
  MetricsRegistry::global().reset();
  SpanRecorder::global().clear();

  Testbed tb;
  PvnClient agent(*tb.client, tb.standard_pvnc());
  bool deployed = false;
  std::string chain_id;
  agent.discover_and_deploy(tb.addrs.control, [&](const DeployOutcome& out) {
    deployed = out.ok;
    chain_id = out.chain_id;
  });
  HttpClient http(*tb.client);
  bool fetched = false;
  tb.net.sim().schedule_at(seconds(2), [&] {
    http.fetch(tb.addrs.web, 80, "/bytes/5000",
               [&](const HttpResponse&, const FetchTiming& t) { fetched = t.ok; });
  });
  tb.net.sim().run_until(seconds(10));
  ASSERT_TRUE(deployed);
  ASSERT_TRUE(fetched);

  const telemetry::MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_GT(snap.counter_total("netsim.link.delivered_packets"), 0u);
  EXPECT_GT(snap.counter_total("sdn.switch.packets_in"), 0u);
  EXPECT_GT(snap.counter_total("sdn.flow_table.hits"), 0u);
  EXPECT_GT(snap.counter_total("mbox.chain.packets"), 0u);
  EXPECT_GT(snap.counter_total("pvn.client.deploys_ok"), 0u);
  EXPECT_GT(snap.counter_total("pvn.server.deploys"), 0u);
  // Tunnel cells register at testbed construction even when idle.
  EXPECT_NE(snap.find("tunnel.device.tunneled"), nullptr);

  // Each getter is the object's own count; with the registry reset above and
  // one object behind each series, the series must hold the same number.
  EXPECT_EQ(tb.server->deployments_total(),
            snap.counter_total("pvn.server.deploys"));
  EXPECT_EQ(tb.server->leases_renewed(),
            snap.counter_total("pvn.server.leases_renewed"));
  EXPECT_EQ(agent.retransmissions(),
            snap.counter_total("pvn.client.deploy_retransmissions"));
  EXPECT_EQ(agent.renews_sent(), snap.counter_total("pvn.client.renews_sent"));
  EXPECT_EQ(tb.access_sw->stats().packets_in,
            snap.counter_total("sdn.switch.packets_in"));
  const Chain* chain = tb.mbox_host->chain(chain_id);
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->packets(), snap.counter_total("mbox.chain.packets"));
  EXPECT_EQ(tb.cloud_gw->decapsulated(),
            snap.counter_total("tunnel.gateway.decapsulated"));

  // The layers' independent accounts of the same run must reconcile.
  const TelemetryAuditor auditor;
  const std::vector<TelemetryFinding> findings =
      auditor.check_dataplane_consistency(snap);
  for (const TelemetryFinding& f : findings) {
    ADD_FAILURE() << f.check << ": " << f.detail;
  }

  // The control plane traced the deploy lifecycle.
  bool saw_cycle = false;
  bool saw_server = false;
  for (const SpanRecord& r : SpanRecorder::global().records()) {
    if (r.name == "deploy_cycle") saw_cycle = true;
    if (r.name == "server_deploy") saw_server = true;
  }
  EXPECT_TRUE(saw_cycle);
  EXPECT_TRUE(saw_server);
}

// --- interpolated quantile estimation ----------------------------------------

TEST(Quantiles, UniformWithinOneBucketInterpolatesLinearly) {
  // 10 observations in the single [0, 100] bucket: Prometheus semantics put
  // the q-th rank at q*total (1-based, min rank 1) and interpolate assuming
  // uniform spread, so p50 = 50 and p90 = 90.
  const std::vector<std::uint64_t> bounds = {100};
  const std::vector<std::uint64_t> counts = {10, 0};
  EXPECT_DOUBLE_EQ(telemetry::estimate_quantile(bounds, counts, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(telemetry::estimate_quantile(bounds, counts, 0.9), 90.0);
  // q=0 maps to rank 1 (the minimum), a tenth of the way up the bucket.
  EXPECT_DOUBLE_EQ(telemetry::estimate_quantile(bounds, counts, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(telemetry::estimate_quantile(bounds, counts, 1.0), 100.0);
}

TEST(Quantiles, MultiBucketDistributionFindsTheRightBucket)  {
  // Known distribution over bounds {10, 20, 40}: 5 obs <= 10, 10 in
  // (10, 20], 5 in (20, 40], none beyond. Total 20.
  const std::vector<std::uint64_t> bounds = {10, 20, 40};
  const std::vector<std::uint64_t> counts = {5, 10, 5, 0};
  // p50: rank 10 -> middle bucket, (10 - 5)/10 of the way from 10 to 20.
  EXPECT_DOUBLE_EQ(telemetry::estimate_quantile(bounds, counts, 0.5), 15.0);
  // p25: rank 5 -> first bucket's top edge (5/5 of the way from 0 to 10).
  EXPECT_DOUBLE_EQ(telemetry::estimate_quantile(bounds, counts, 0.25), 10.0);
  // p95: rank 19 -> last finite bucket, (19 - 15)/5 from 20 to 40.
  EXPECT_DOUBLE_EQ(telemetry::estimate_quantile(bounds, counts, 0.95), 36.0);
}

TEST(Quantiles, OverflowBucketClampsToTheHighestFiniteBound) {
  const std::vector<std::uint64_t> bounds = {10, 20};
  const std::vector<std::uint64_t> counts = {1, 1, 8};  // mass in +inf
  // Anything ranked into +inf has no upper edge: clamp, don't extrapolate.
  EXPECT_DOUBLE_EQ(telemetry::estimate_quantile(bounds, counts, 0.99), 20.0);
  EXPECT_DOUBLE_EQ(telemetry::estimate_quantile(bounds, counts, 0.5), 20.0);
}

TEST(Quantiles, EdgeCasesAreTotal) {
  EXPECT_DOUBLE_EQ(telemetry::estimate_quantile({}, {}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(telemetry::estimate_quantile({10}, {0, 0}, 0.99), 0.0);
  // Out-of-range q clamps instead of misbehaving.
  const std::vector<std::uint64_t> bounds = {10};
  const std::vector<std::uint64_t> counts = {10, 0};
  EXPECT_DOUBLE_EQ(telemetry::estimate_quantile(bounds, counts, -1.0),
                   telemetry::estimate_quantile(bounds, counts, 0.0));
  EXPECT_DOUBLE_EQ(telemetry::estimate_quantile(bounds, counts, 2.0),
                   telemetry::estimate_quantile(bounds, counts, 1.0));
}

TEST(Quantiles, EstimateQuantilesMatchesSingleCalls) {
  const std::vector<std::uint64_t> bounds = {10, 100, 1000};
  const std::vector<std::uint64_t> counts = {7, 90, 3, 0};
  const telemetry::QuantileEstimates e =
      telemetry::estimate_quantiles(bounds, counts);
  EXPECT_DOUBLE_EQ(e.p50, telemetry::estimate_quantile(bounds, counts, 0.50));
  EXPECT_DOUBLE_EQ(e.p95, telemetry::estimate_quantile(bounds, counts, 0.95));
  EXPECT_DOUBLE_EQ(e.p99, telemetry::estimate_quantile(bounds, counts, 0.99));
  EXPECT_LE(e.p50, e.p95);
  EXPECT_LE(e.p95, e.p99);
}

TEST(Quantiles, MetricSampleQuantileReadsHistogramSamples) {
  MetricsRegistry reg;
  telemetry::Histogram& h = reg.histogram("q.lat", {10, 20, 40});
  for (int i = 0; i < 5; ++i) h.observe(5);
  for (int i = 0; i < 10; ++i) h.observe(15);
  for (int i = 0; i < 5; ++i) h.observe(30);
  const auto snap = reg.snapshot();
  const telemetry::MetricSample* s = snap.find("q.lat");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->quantile(0.5), 15.0);
  // Non-histogram samples answer 0 rather than misbehaving.
  reg.counter("q.count").inc();
  const auto snap2 = reg.snapshot();
  const telemetry::MetricSample* c = snap2.find("q.count");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->quantile(0.99), 0.0);
}

}  // namespace
}  // namespace pvn

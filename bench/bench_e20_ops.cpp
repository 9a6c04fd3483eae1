// E20 — Operations-plane bench: the admin surface must observe without
// perturbing, and must observe *consistently*.
//
// Three gates, each a hard exit-code failure:
//   1. Flight-recorder overhead: the per-link packet sampler attached to
//      the shared dataplane workload (dataplane.h) must cost < 5% in
//      events per thread-CPU second (bench::ab_compare: the median of
//      paired ratios), and must be passive (identical delivery digest with
//      and without it).
//   2. Snapshot: an OpsEndpoint metrics snapshot of the dataplane workload
//      must be answered with per-link samples whose carried digest matches
//      them. The per-link deltas' digest and the snapshot time (1 ms after
//      the request arrives) are pinned in tests/golden/digests.json.
//   3. Reconfiguration verbs: every OpsVerb round-trips through the in-sim
//      protocol against the full testbed, is idempotent under admin
//      retransmission, and is visible in a subsequent snapshot.
//
// Prints BENCH_ops.json (override with PVN_BENCH_JSON). Quick mode
// (PVN_BENCH_QUICK=1 or --quick) shrinks the workload; all gates still run.
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/reputation.h"
#include "common.h"
#include "dataplane.h"
#include "ops/client.h"
#include "ops/endpoint.h"
#include "ops/flight_recorder.h"
#include "proto/ops.h"
#include "testbed/testbed.h"

using namespace pvn;

namespace {

// --- gate 1: flight-recorder overhead ----------------------------------------

struct OverheadResult {
  bench::AbResult ab;    // events/s with the recorder (B) over without (A)
  bool passive = true;   // every run's delivery digest matched the first's
  std::uint64_t samples_captured = 0;
};

OverheadResult measure_overhead() {
  // The overhead gate always runs the full-size workload: quick-mode
  // 150-packet runs are a few ms and measured anywhere from -7% to +34% on
  // a loaded machine.
  const int flows = 32;
  const int packets = 1000;
  OverheadResult r;
  std::optional<std::uint64_t> reference;
  const auto run = [&](bool with_recorder) {
    bench::DataplaneScenario sc(flows, packets, /*with_admin=*/false);
    FlightRecorder rec;  // default config: every 16th packet
    if (with_recorder) rec.attach(sc.net);
    const double t0 = bench::thread_cpu_seconds();
    const std::size_t events = sc.net.sim().run();
    const double cpu = bench::thread_cpu_seconds() - t0;
    const std::uint64_t digest = sc.digest();
    if (!reference.has_value()) reference = digest;
    r.passive = r.passive && digest == *reference;
    if (with_recorder) r.samples_captured = rec.samples().size();
    return bench::AbSample{static_cast<double>(events), cpu};
  };
  r.ab = bench::ab_compare([&] { return run(false); },
                           [&] { return run(true); }, bench::kAbPairs);
  return r;
}

// --- gate 2: snapshot ---------------------------------------------------------

// Per-link metric deltas for one run: (reply samples) minus
// (registry values before the run started). The global registry accumulates
// across scenarios in this process, so only the deltas are pinned.
struct SnapshotRun {
  bool replied = false;
  SimTime barrier_time = 0;
  std::size_t sample_count = 0;
  bool wire_digest_ok = false;  // server digest matches the samples carried
  std::uint64_t delta_digest = 0;
};

SnapshotRun run_snapshot(int flows, int packets) {
  bench::DataplaneScenario sc(flows, packets, /*with_admin=*/true);

  static constexpr const char* kPrefix = "netsim.link.";
  std::map<std::pair<std::string, std::string>, telemetry::MetricSample> base;
  for (const telemetry::MetricSample& s :
       telemetry::MetricsRegistry::global().snapshot().samples) {
    if (s.name.rfind(kPrefix, 0) == 0) base[{s.name, s.instance}] = s;
  }

  std::optional<OpsSnapshotReply> reply;
  sc.net.sim().schedule_at(
      milliseconds(5), SimCategory::kPvnControl, [&sc, &reply] {
        sc.client->request_snapshot(
            kPrefix, [&reply](const OpsSnapshotReply& r) { reply = r; });
      });
  sc.net.sim().run_until(milliseconds(20));
  // Drain to completion so the shared global registry's gauges (set
  // semantics, e.g. queued_bytes) read zero again before a later run
  // captures its baseline.
  sc.net.sim().run();

  SnapshotRun out;
  if (!reply.has_value()) return out;
  out.replied = true;
  out.barrier_time = reply->barrier_time;
  out.sample_count = reply->samples.size();
  out.wire_digest_ok = reply->digest == ops_snapshot_digest(reply->samples);

  std::vector<OpsMetricSample> deltas = reply->samples;
  for (OpsMetricSample& s : deltas) {
    const auto it = base.find({s.name, s.instance});
    if (it == base.end()) continue;
    s.counter_value -= it->second.counter_value;
    s.gauge_value -= it->second.gauge_value;
    s.hist_count -= it->second.hist_count;
    s.hist_sum -= it->second.hist_sum;
  }
  out.delta_digest = ops_snapshot_digest(deltas);
  return out;
}

// --- gate 3: reconfiguration verbs against the full testbed ------------------

struct VerbsResult {
  bool deploy_ok = false;
  bool inject_ok = false;
  bool wipe_ok = false;
  bool promote_ok = false;
  bool quarantine_ok = false;
  bool sampling_ok = false;
  bool idempotent = false;   // retransmit re-replies without re-applying
  bool visible = false;      // applied count shows up in a later snapshot
  std::uint64_t applied = 0;
  std::uint64_t duplicates = 0;

  bool all() const {
    return deploy_ok && inject_ok && wipe_ok && promote_ok && quarantine_ok &&
           sampling_ok && idempotent && visible;
  }
};

VerbsResult run_verbs() {
  TestbedConfig cfg;
  cfg.standby = true;
  cfg.enable_ops = true;
  Testbed tb(cfg);
  VerbsResult r;
  r.deploy_ok = tb.deploy(tb.standard_pvnc("alice-phone")).ok;

  HostScoreboard scoreboard;
  tb.ops->set_scoreboard(&scoreboard);
  std::size_t wiped_calls = 0;
  tb.ops->register_cache("dns-cache", [&wiped_calls] {
    ++wiped_calls;
    return std::size_t{3};
  });

  const std::uint64_t applied_before = tb.ops->reconfigs_applied();

  OpsClient admin(*tb.client, tb.addrs.control);
  auto drive = [&tb](SimDuration d) {
    tb.net.sim().run_until(tb.net.sim().now() + d);
  };
  auto roundtrip = [&](OpsReconfigRequest rq,
                       std::optional<OpsReconfigReply>& out) {
    const std::uint32_t seq = admin.send_reconfig(
        std::move(rq), [&out](const OpsReconfigReply& rep) { out = rep; });
    drive(milliseconds(200));
    return seq;
  };

  std::optional<OpsReconfigReply> rep;
  OpsReconfigRequest rq;
  rq.verb = OpsVerb::kInjectRule;
  rq.switch_name = Testbed::kSwitchName;
  rq.table = 0;
  rq.rule.priority = 5000;
  rq.rule.cookie = "ops:drop-tracker";
  rq.rule.match.dst = Prefix{tb.addrs.tracker, 32};
  const Action drop = ActDrop{};  // named: avoids a GCC12 variant-move warning
  rq.rule.actions.push_back(drop);
  roundtrip(rq, rep);
  bool rule_installed = false;
  for (const FlowRule& rule : tb.access_sw->table(0).rules()) {
    if (rule.cookie == "ops:drop-tracker") rule_installed = true;
  }
  r.inject_ok = rep.has_value() && rep->ok && rep->applied && rule_installed;

  rep.reset();
  rq = {};
  rq.verb = OpsVerb::kWipeCache;
  rq.cache_id = "dns-cache";
  const std::uint32_t wipe_seq = roundtrip(rq, rep);
  r.wipe_ok = rep.has_value() && rep->ok && rep->applied && wiped_calls == 1;

  rep.reset();
  rq = {};
  rq.verb = OpsVerb::kPromoteStandby;
  rq.device_id = "alice-phone";
  roundtrip(rq, rep);
  r.promote_ok = rep.has_value() && rep->ok && rep->applied &&
                 tb.server->deployment_view("alice-phone").promoted;

  rep.reset();
  rq = {};
  rq.verb = OpsVerb::kQuarantineOverride;
  rq.target_host = tb.addrs.standby.to_string();
  rq.quarantine = 1;
  roundtrip(rq, rep);
  r.quarantine_ok =
      rep.has_value() && rep->ok && rep->applied &&
      scoreboard.quarantined(tb.addrs.standby.to_string(), tb.net.sim().now());

  rep.reset();
  rq = {};
  rq.verb = OpsVerb::kSetSamplingRate;
  rq.sample_interval = 64;
  roundtrip(rq, rep);
  r.sampling_ok = rep.has_value() && rep->ok && rep->applied &&
                  tb.flight_recorder->sample_interval() == 64;

  // Idempotency: a retrying admin re-sends the wipe byte-identically; the
  // endpoint re-serves the cached reply without wiping again.
  rep.reset();
  admin.retransmit(wipe_seq);
  drive(milliseconds(200));
  r.applied = tb.ops->reconfigs_applied() - applied_before;
  r.duplicates = tb.ops->duplicates_suppressed();
  r.idempotent = rep.has_value() && rep->ok && wiped_calls == 1 &&
                 r.duplicates == 1 && r.applied == 5;

  // Visibility: the endpoint's own counters make every applied verb
  // observable through the same snapshot path an operator would use.
  std::optional<OpsSnapshotReply> snap;
  admin.request_snapshot("ops.endpoint.",
                         [&snap](const OpsSnapshotReply& s) { snap = s; });
  drive(milliseconds(200));
  if (snap.has_value()) {
    for (const OpsMetricSample& s : snap->samples) {
      if (s.name == "ops.endpoint.reconfigs_applied" &&
          s.counter_value >= r.applied) {
        r.visible = true;
      }
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::TelemetryScope telemetry(argc, argv);
  const bool quick = bench::quick_mode(argc, argv);

  bench::title("E20 — operations plane",
               "admin introspection must not perturb the dataplane, and "
               "every admin request must be answered in-sim");

  // Gate 1: flight-recorder overhead on the dataplane workload.
  const OverheadResult oh = measure_overhead();
  const bool overhead_within = oh.ab.overhead_pct() < 5.0;
  const bool overhead_ok = overhead_within && oh.passive;
  bench::header({"recorder", "events/s", "overhead %", "IQR %", "passive"});
  bench::row("off", oh.ab.base_rate, 0.0, "-", "-");
  bench::row("every 16th packet", oh.ab.variant_rate, oh.ab.overhead_pct(),
             oh.ab.ratio_iqr * 100.0, oh.passive ? "yes" : "NO");

  // Gate 2: a snapshot of the dataplane workload.
  const SnapshotRun snap = run_snapshot(/*flows=*/32, quick ? 100 : 500);
  const bool snapshot_ok =
      snap.replied && snap.sample_count > 0 && snap.wire_digest_ok;
  std::printf("\n");
  bench::header({"at (us)", "samples", "delta digest"});
  bench::row(static_cast<double>(snap.barrier_time) / 1000.0,
             static_cast<std::uint64_t>(snap.sample_count),
             snap.delta_digest);
  std::printf("snapshot: %s\n", snapshot_ok ? "ok" : "FAIL");

  // Gate 3: every reconfiguration verb round-trips against the testbed.
  const VerbsResult verbs = run_verbs();
  std::printf("\n");
  bench::header({"verb", "round-trip"});
  bench::row("inject-rule", verbs.inject_ok ? "ok" : "FAIL");
  bench::row("wipe-cache", verbs.wipe_ok ? "ok" : "FAIL");
  bench::row("promote-standby", verbs.promote_ok ? "ok" : "FAIL");
  bench::row("quarantine-override", verbs.quarantine_ok ? "ok" : "FAIL");
  bench::row("set-sampling-rate", verbs.sampling_ok ? "ok" : "FAIL");
  bench::row("retransmit (idempotent)", verbs.idempotent ? "ok" : "FAIL");
  bench::row("visible in snapshot", verbs.visible ? "ok" : "FAIL");

  bench::JsonWriter json;
  json.begin_object()
      .field("bench", "e20_ops")
      .field("quick", quick)
      .field("events_per_sec_base", oh.ab.base_rate, 0)
      .field("events_per_sec_recorder", oh.ab.variant_rate, 0)
      .field("recorder_overhead_pct", oh.ab.overhead_pct(), 3)
      .field("recorder_overhead_iqr_pct", oh.ab.ratio_iqr * 100.0, 3)
      .field("recorder_overhead_within_5pct", overhead_within)
      .field("recorder_passive", oh.passive)
      .field("recorder_samples", oh.samples_captured)
      .field("snapshot_barrier_us",
             static_cast<double>(snap.barrier_time) / 1000.0, 3)
      .field("snapshot_samples", snap.sample_count)
      .field("snapshot_delta_digest", snap.delta_digest)
      .field("snapshot_ok", snapshot_ok)
      .begin_object("verbs")
      .field("inject_rule", verbs.inject_ok)
      .field("wipe_cache", verbs.wipe_ok)
      .field("promote_standby", verbs.promote_ok)
      .field("quarantine_override", verbs.quarantine_ok)
      .field("set_sampling_rate", verbs.sampling_ok)
      .field("idempotent_under_retransmit", verbs.idempotent)
      .field("visible_in_snapshot", verbs.visible)
      .end_object()
      .field("verbs_ok", verbs.all())
      .end_object();
  const bool wrote = bench::write_json(json, "BENCH_ops.json");

  const bool pass = wrote && overhead_ok && snapshot_ok && verbs.all();
  std::printf("gates: overhead %s, snapshot %s, verbs %s -> %s\n",
              overhead_ok ? "pass" : "FAIL", snapshot_ok ? "pass" : "FAIL",
              verbs.all() ? "pass" : "FAIL", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

// E16 — Control-plane resilience under injected faults (paper §3.3).
//
// The paper's §3.3 argues a PVN must "cope with unavailability": lossy
// access links during the discovery handshake, middlebox hosts that crash
// mid-session, and devices that vanish holding deployed state. This bench
// measures the three resilience mechanisms end to end:
//
//   1. deploy success + cost under access-link loss (retransmission),
//   2. failover/recovery time and goodput when the MboxHost crashes
//      mid-session (lease refusal -> device VPN tunnel -> re-deploy),
//   3. reclamation lag for a crashed client's lease (memory returns).
//
// A machine-readable JSON summary is printed at the end for plotting.
#include <cstdio>

#include "common.h"
#include "proto/http.h"
#include "testbed/testbed.h"

using namespace pvn;

namespace {

struct LossPoint {
  double loss = 0.0;
  int runs = 0;
  int succeeded = 0;
  double mean_messages = 0.0;
  double mean_elapsed_ms = 0.0;
};

LossPoint sweep_loss(double loss, int runs) {
  LossPoint point;
  point.loss = loss;
  point.runs = runs;
  double messages = 0.0;
  double elapsed_ms = 0.0;
  for (int run = 0; run < runs; ++run) {
    TestbedConfig cfg;
    cfg.access.loss = loss;
    cfg.seed = 100 + static_cast<std::uint64_t>(run);
    Testbed tb(cfg);
    ClientConfig ccfg;
    ccfg.retry.max_discovery_rounds = 8;
    ccfg.retry.max_deploy_attempts = 8;
    ccfg.retry.backoff = 1.5;  // all 8 attempts fit inside the deadline
    ccfg.deploy_timeout = seconds(30);
    const DeployOutcome out = tb.deploy(tb.standard_pvnc(), ccfg);
    if (!out.ok) continue;
    ++point.succeeded;
    messages += out.messages_sent + out.messages_received;
    elapsed_ms += to_milliseconds(out.elapsed);
  }
  if (point.succeeded > 0) {
    point.mean_messages = messages / point.succeeded;
    point.mean_elapsed_ms = elapsed_ms / point.succeeded;
  }
  return point;
}

struct FailoverResult {
  double failover_ms = 0.0;   // crash -> tunnel active
  double recovery_ms = 0.0;   // mbox restart -> PVN active again
  double fallback_goodput_kbps = 0.0;  // HTTP through the tunnel
  std::uint64_t tunneled = 0;
};

FailoverResult run_failover() {
  TestbedConfig cfg;
  cfg.lease_duration = seconds(2);
  Testbed tb(cfg);

  ClientConfig ccfg;
  ccfg.constraints.required_modules = {"tls-validator"};  // cannot degrade
  ccfg.session.fallback_retry = seconds(1);
  PvnClient agent(*tb.client, tb.standard_pvnc(), ccfg);
  agent.set_fallback(tb.device_tunnel.get());

  const SimTime crash_at = seconds(2);
  const SimTime restart_at = seconds(10);
  SimTime fallback_seen = 0;
  SimTime recovered_seen = 0;
  agent.set_state_callback([&](SessionState s) {
    const SimTime now = tb.net.sim().now();
    if (s == SessionState::kFallback && fallback_seen == 0) fallback_seen = now;
    if (s == SessionState::kActive && now > restart_at && recovered_seen == 0) {
      recovered_seen = now;
    }
  });
  agent.start_session(tb.addrs.control);

  tb.net.sim().schedule_at(crash_at, [&] { tb.mbox_host->crash(); });
  tb.net.sim().schedule_at(restart_at, [&] { tb.mbox_host->restart(); });

  // Goodput probe while on the tunnel: fetch 100 kB starting at 5 s, well
  // inside the fallback window.
  std::size_t fetched_bytes = 0;
  SimTime fetch_start = 0;
  SimTime fetch_end = 0;
  HttpClient http(*tb.client);
  tb.net.sim().schedule_at(seconds(5), [&] {
    fetch_start = tb.net.sim().now();
    http.fetch(tb.addrs.web, 80, "/bytes/100000",
               [&](const HttpResponse& resp, const FetchTiming& t) {
                 if (!t.ok) return;
                 fetched_bytes = resp.body.size();
                 fetch_end = tb.net.sim().now();
               });
  });
  tb.net.sim().run_until(seconds(30));

  FailoverResult r;
  if (fallback_seen > crash_at) {
    r.failover_ms = to_milliseconds(fallback_seen - crash_at);
  }
  if (recovered_seen > restart_at) {
    r.recovery_ms = to_milliseconds(recovered_seen - restart_at);
  }
  if (fetch_end > fetch_start && fetched_bytes > 0) {
    r.fallback_goodput_kbps = 8.0 * static_cast<double>(fetched_bytes) /
                              to_milliseconds(fetch_end - fetch_start);
  }
  r.tunneled = tb.device_tunnel->tunneled();
  return r;
}

struct ReclaimResult {
  double lease_s = 0.0;
  double reclaim_ms = 0.0;  // last renewal opportunity -> memory reclaimed
};

ReclaimResult run_reclaim(SimDuration lease) {
  TestbedConfig cfg;
  cfg.lease_duration = lease;
  Testbed tb(cfg);
  const std::int64_t memory_before = tb.mbox_host->memory_in_use();

  PvnClient agent(*tb.client, tb.standard_pvnc());
  SimTime deployed_at = 0;
  agent.discover_and_deploy(tb.addrs.control, [&](const DeployOutcome& out) {
    if (out.ok) deployed_at = tb.net.sim().now();
  });
  // The one-shot agent never renews: a crashed device. Poll memory on a
  // fine grid to timestamp the reclamation.
  SimTime reclaimed_at = 0;
  for (int ms = 0; ms < 60000; ms += 50) {
    tb.net.sim().schedule_at(milliseconds(ms), [&, memory_before] {
      if (reclaimed_at == 0 && deployed_at != 0 &&
          tb.mbox_host->memory_in_use() == memory_before) {
        reclaimed_at = tb.net.sim().now();
      }
    });
  }
  tb.net.sim().run_until(seconds(60));

  ReclaimResult r;
  r.lease_s = to_milliseconds(lease) / 1000.0;
  if (reclaimed_at > deployed_at && deployed_at != 0) {
    r.reclaim_ms = to_milliseconds(reclaimed_at - deployed_at);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  pvn::bench::TelemetryScope telemetry(argc, argv);
  bench::title("E16 control-plane resilience under faults",
               "retransmission rides out lossy links, leases reclaim "
               "crashed clients, and sessions fail over to the VPN tunnel "
               "and back (§3.3)");

  // --- 1. deploy vs. access loss ---------------------------------------
  bench::header({"access loss", "deploys ok", "mean msgs", "mean ms"});
  std::vector<LossPoint> losses;
  for (const double loss : {0.0, 0.1, 0.2, 0.3, 0.4}) {
    const LossPoint p = sweep_loss(loss, 6);
    losses.push_back(p);
    char ok[32];
    std::snprintf(ok, sizeof ok, "%d/%d", p.succeeded, p.runs);
    bench::row(p.loss, std::string(ok), p.mean_messages, p.mean_elapsed_ms);
  }

  // --- 2. mbox crash -> tunnel failover -> recovery ---------------------
  std::printf("\n");
  bench::header({"metric", "value"});
  const FailoverResult fo = run_failover();
  bench::row("failover (ms)", fo.failover_ms);
  bench::row("recovery (ms)", fo.recovery_ms);
  bench::row("tunnel goodput (kbps)", fo.fallback_goodput_kbps);
  bench::row("pkts tunneled", fo.tunneled);

  // --- 3. lease reclamation lag -----------------------------------------
  std::printf("\n");
  bench::header({"lease (s)", "reclaim lag (ms)"});
  std::vector<ReclaimResult> reclaims;
  for (const int lease_s : {1, 2, 5}) {
    const ReclaimResult r = run_reclaim(seconds(lease_s));
    reclaims.push_back(r);
    bench::row(r.lease_s, r.reclaim_ms);
  }

  // --- machine-readable summary -----------------------------------------
  bench::JsonWriter json(/*pretty=*/false);
  json.begin_object()
      .field("experiment", "e16_resilience")
      .begin_array("loss_sweep");
  for (const LossPoint& p : losses) {
    json.begin_object()
        .field("loss", p.loss, 2)
        .field("ok", p.succeeded)
        .field("runs", p.runs)
        .field("mean_messages", p.mean_messages, 1)
        .field("mean_ms", p.mean_elapsed_ms, 1)
        .end_object();
  }
  json.end_array()
      .begin_object("failover")
      .field("failover_ms", fo.failover_ms, 1)
      .field("recovery_ms", fo.recovery_ms, 1)
      .field("tunnel_goodput_kbps", fo.fallback_goodput_kbps, 1)
      .field("tunneled", fo.tunneled)
      .end_object()
      .begin_array("lease_reclaim");
  for (const ReclaimResult& r : reclaims) {
    json.begin_object()
        .field("lease_s", r.lease_s, 1)
        .field("reclaim_ms", r.reclaim_ms, 1)
        .end_object();
  }
  json.end_array().end_object();
  std::printf("\nJSON: %s\n", json.str().c_str());
  return 0;
}

// E18 — Survivability: warm-standby promotion and live PVN migration.
//
// The paper's mobility story ("the PVN follows the user", §3.2) only works
// if a deployed PVN survives infrastructure failure and network moves. This
// bench measures the two survivability mechanisms end to end:
//
//   1. Primary mbox crash with vs without a warm standby: client-visible
//      blackout (probe service gap), probes lost, and whether the session
//      survives without a failover. With a standby the SDN controller
//      re-points flow rules at the promoted chain within one control RTT;
//      without one the session rides the old lease-refusal -> VPN tunnel
//      path, orders of magnitude slower.
//   2. Live migration between access networks: the device re-attaches, the
//      new network pulls the old chain's state (kStateRequest handoff), and
//      the client drains in-flight packets before tearing the old session
//      down. Blackout must stay bounded by a small constant number of
//      in-flight probes, deterministically reproducible per seed.
//
// Writes BENCH_survivability.json (override with PVN_BENCH_JSON) and prints
// a trailing JSON: line; PVN_BENCH_QUICK=1 / --quick shrinks the sweep.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "mbox/inline_modules.h"
#include "testbed/roaming.h"
#include "testbed/testbed.h"

using namespace pvn;

namespace {

Pvnc survivable_pvnc() {
  Pvnc pvnc;
  pvnc.name = "alice-phone";
  pvnc.chain.push_back(PvncModule{"tls-validator", {{"mode", "block"}}});
  pvnc.chain.push_back(PvncModule{"classifier", {}});
  pvnc.chain.push_back(PvncModule{"tracker-blocker", {}});
  return pvnc;
}

Classifier* find_classifier(Chain* chain) {
  if (chain == nullptr) return nullptr;
  for (Middlebox* m : chain->modules()) {
    if (m->name() == "classifier") return dynamic_cast<Classifier*>(m);
  }
  return nullptr;
}

// --- Scenario 1: primary crash, standby vs tunnel failover -------------------

struct CrashResult {
  bool standby = false;
  // Protection blackout: crash -> first probe that traverses a PVN
  // dataplane again (the promoted chain, or the fallback tunnel). The
  // network itself never blips — a torn-down deployment forwards traffic
  // unprotected — so this is the client-visible survivability metric.
  double blackout_ms = 0.0;
  double service_gap_ms = 0.0;  // crash -> first probe delivered at all
  int probes_sent = 0;
  int probes_lost = 0;
  std::uint64_t promotions = 0;
  std::uint64_t failovers = 0;
  std::uint64_t dropped_rule_delta = 0;
  std::uint64_t checkpoints_applied = 0;
  bool session_stayed_active = false;  // never left kActive after the crash
  bool state_continuous = false;       // promoted chain kept per-flow state
};

CrashResult run_crash(bool standby, std::uint64_t seed) {
  TestbedConfig cfg;
  cfg.standby = standby;
  cfg.lease_duration = seconds(2);
  cfg.checkpoint_interval = milliseconds(100);
  cfg.seed = seed;
  Testbed tb(cfg);

  ClientConfig ccfg;
  ccfg.constraints.required_modules = {"tls-validator"};  // cannot degrade
  ccfg.session.fallback_retry = seconds(1);
  PvnClient agent(*tb.client, survivable_pvnc(), ccfg);
  agent.set_fallback(tb.device_tunnel.get());
  const SimTime crash_at = seconds(4);
  bool left_active = false;
  agent.set_state_callback([&](SessionState s) {
    if (tb.net.sim().now() >= crash_at && s != SessionState::kActive) {
      left_active = true;
    }
  });
  agent.start_session(tb.addrs.control);

  // A 500 Hz probe stream through the deployed chain toward the web server:
  // fine-grained enough to resolve a one-control-RTT promotion.
  const SimTime probes_from = seconds(1);
  const SimTime probes_until = seconds(11);
  const SimTime horizon = seconds(12);
  int sent = 0;
  int received = 0;
  SimTime first_after_crash = 0;
  tb.web->bind_udp(8080, [&](Ipv4Addr, Port, Port, const Bytes&) {
    ++received;
    const SimTime now = tb.net.sim().now();
    if (now >= crash_at && first_after_crash == 0) first_after_crash = now;
  });
  for (SimTime t = probes_from; t < probes_until; t += milliseconds(2)) {
    tb.net.sim().schedule_at(t, [&] {
      ++sent;
      tb.client->send_udp(
          tb.addrs.web, static_cast<Port>(20000 + sent % 50), 8080,
          to_bytes("probe Content-Type: video #" + std::to_string(sent % 50)));
    });
  }

  // Record the primary chain's per-flow state and rule-drop count just
  // before the crash, then kill the mbox pool.
  std::uint64_t flows_at_crash = 0;
  std::uint64_t dropped_before = 0;
  tb.net.sim().schedule_at(crash_at - milliseconds(1), [&] {
    if (Classifier* c = find_classifier(tb.mbox_host->chain(agent.chain_id()))) {
      flows_at_crash = c->flows_classified();
    }
    dropped_before = tb.access_sw->stats().dropped_rule;
  });
  tb.net.sim().schedule_at(crash_at, [&] { tb.mbox_host->crash(); });

  // Protection blackout probe: on a 1 ms grid after the crash, note the
  // first instant a PVN dataplane has processed client traffic again —
  // the promoted standby chain, or the fallback tunnel.
  SimTime protected_at = 0;
  for (SimTime t = crash_at; t < horizon; t += milliseconds(1)) {
    tb.net.sim().schedule_at(t, [&] {
      if (protected_at != 0) return;
      if (standby) {
        Chain* promoted = tb.standby_mbox->chain(agent.chain_id());
        if (promoted != nullptr && promoted->packets() > 0) {
          protected_at = tb.net.sim().now();
        }
      } else if (tb.device_tunnel->tunneled() > 0) {
        protected_at = tb.net.sim().now();
      }
    });
  }
  tb.net.sim().run_until(horizon);

  CrashResult r;
  r.standby = standby;
  r.probes_sent = sent;
  r.probes_lost = sent - received;
  if (protected_at > 0) {
    r.blackout_ms = to_milliseconds(protected_at - crash_at);
  }
  if (first_after_crash > 0) {
    r.service_gap_ms = to_milliseconds(first_after_crash - crash_at);
  }
  r.promotions = tb.server->standby_promotions();
  r.failovers = agent.failovers();
  r.dropped_rule_delta = tb.access_sw->stats().dropped_rule - dropped_before;
  r.session_stayed_active = !left_active;
  if (standby) {
    r.checkpoints_applied = tb.standby_agent->checkpoints_applied();
    if (Classifier* c =
            find_classifier(tb.standby_mbox->chain(agent.chain_id()))) {
      r.state_continuous =
          flows_at_crash > 0 && c->flows_classified() >= flows_at_crash;
    }
  }
  return r;
}

// --- Scenario 2: live migration between access networks ----------------------

struct MigrationResult {
  int probes_sent = 0;
  int probes_lost = 0;
  double longest_gap_ms = 0.0;  // max inter-arrival gap around the move
  bool migrated = false;
  std::uint64_t handoffs = 0;
  std::uint64_t state_requests = 0;
  bool state_continuous = false;
  bool old_session_gone = false;
};

MigrationResult run_migration(std::uint64_t seed) {
  RoamingConfig cfg;
  cfg.seed = seed;
  RoamingTestbed tb(cfg);

  PvnClient agent(*tb.client, tb.roaming_pvnc());
  agent.start_session(tb.addrs.control_a);

  const SimTime move_at = seconds(2);
  const SimTime probes_from = seconds(1);
  const SimTime probes_until = seconds(7);
  const SimTime horizon = seconds(8);
  int sent = 0;
  int received = 0;
  SimTime last_arrival = 0;
  SimDuration longest_gap = 0;
  tb.web->bind_udp(8080, [&](Ipv4Addr, Port, Port, const Bytes&) {
    ++received;
    const SimTime now = tb.net.sim().now();
    // Observe the service gap around the move window.
    if (last_arrival > 0 && now >= move_at && now < move_at + seconds(3)) {
      longest_gap = std::max(longest_gap, now - last_arrival);
    }
    last_arrival = now;
  });
  for (SimTime t = probes_from; t < probes_until; t += milliseconds(10)) {
    tb.net.sim().schedule_at(t, [&] {
      ++sent;
      tb.client->send_udp(
          tb.addrs.web, static_cast<Port>(21000 + sent % 40), 8080,
          to_bytes("probe Content-Type: video #" + std::to_string(sent % 40)));
    });
  }

  std::uint64_t flows_before = 0;
  std::string old_chain_id;
  bool migrate_ok = false;
  tb.net.sim().schedule_at(move_at, [&] {
    old_chain_id = agent.chain_id();
    if (Classifier* c = find_classifier(tb.a.mbox->chain(old_chain_id))) {
      flows_before = c->flows_classified();
    }
    tb.re_attach();
    agent.migrate(tb.addrs.control_b, milliseconds(300),
                  [&](const DeployOutcome& o) { migrate_ok = o.ok; });
  });
  tb.net.sim().run_until(horizon);

  MigrationResult r;
  r.probes_sent = sent;
  r.probes_lost = sent - received;
  r.longest_gap_ms = to_milliseconds(longest_gap);
  r.migrated = migrate_ok && agent.migrations() == 1;
  r.handoffs = tb.b.server->handoffs_completed();
  r.state_requests = tb.a.server->state_requests_served();
  if (Classifier* c = find_classifier(tb.b.mbox->chain(agent.chain_id()))) {
    r.state_continuous =
        flows_before > 0 && c->flows_classified() >= flows_before;
  }
  r.old_session_gone = tb.a.server->deployments_active() == 0 &&
                       tb.a.mbox->chain(old_chain_id) == nullptr;
  return r;
}

void print_crash_row(const CrashResult& r) {
  bench::row(r.standby ? "warm standby" : "tunnel failover", r.blackout_ms,
             r.probes_lost, r.probes_sent,
             static_cast<std::uint64_t>(r.failovers),
             r.session_stayed_active ? "yes" : "NO");
}

void crash_json(bench::JsonWriter& json, const CrashResult& r) {
  json.begin_object()
      .field("standby", r.standby)
      .field("blackout_ms", r.blackout_ms, 3)
      .field("service_gap_ms", r.service_gap_ms, 3)
      .field("probes_sent", r.probes_sent)
      .field("probes_lost", r.probes_lost)
      .field("promotions", r.promotions)
      .field("failovers", r.failovers)
      .field("dropped_rule_delta", r.dropped_rule_delta)
      .field("checkpoints_applied", r.checkpoints_applied)
      .field("session_stayed_active", r.session_stayed_active)
      .field("state_continuous", r.state_continuous)
      .end_object();
}

}  // namespace

int main(int argc, char** argv) {
  pvn::bench::TelemetryScope telemetry(argc, argv);
  const bool quick = bench::quick_mode(argc, argv);

  bench::title("E18 survivability: standby promotion + live migration",
               "a deployed PVN survives a middlebox host crash within one "
               "control RTT via a warm standby, and follows the user across "
               "access networks with a bounded in-flight blackout");

  // --- 1. crash recovery: warm standby vs tunnel failover ---------------
  const std::vector<std::uint64_t> seeds =
      quick ? std::vector<std::uint64_t>{1}
            : std::vector<std::uint64_t>{1, 2, 3};
  bench::header({"recovery path", "blackout ms", "lost", "sent", "failovers",
                 "session alive"});
  std::vector<CrashResult> with_standby;
  std::vector<CrashResult> without_standby;
  for (const std::uint64_t seed : seeds) {
    with_standby.push_back(run_crash(/*standby=*/true, seed));
    without_standby.push_back(run_crash(/*standby=*/false, seed));
    print_crash_row(with_standby.back());
    print_crash_row(without_standby.back());
  }

  // --- 2. live migration ------------------------------------------------
  std::printf("\n");
  bench::header({"metric", "value"});
  const MigrationResult mig = run_migration(seeds[0]);
  // Determinism gate: the same seed replays the exact same migration.
  const MigrationResult mig2 = run_migration(seeds[0]);
  const bool deterministic = mig.probes_sent == mig2.probes_sent &&
                             mig.probes_lost == mig2.probes_lost &&
                             mig.longest_gap_ms == mig2.longest_gap_ms &&
                             mig.handoffs == mig2.handoffs;
  bench::row("probes sent", mig.probes_sent);
  bench::row("probes lost", mig.probes_lost);
  bench::row("longest gap (ms)", mig.longest_gap_ms);
  bench::row("state handoffs", static_cast<std::uint64_t>(mig.handoffs));
  bench::row("state continuous", mig.state_continuous ? "yes" : "NO");
  bench::row("old session gone", mig.old_session_gone ? "yes" : "NO");
  bench::row("deterministic", deterministic ? "yes" : "NO");

  // --- acceptance gates --------------------------------------------------
  bool standby_ok = true;
  double worst_standby_blackout = 0.0;
  double best_failover_blackout = 1e18;
  for (const CrashResult& r : with_standby) {
    standby_ok = standby_ok && r.promotions == 1 && r.failovers == 0 &&
                 r.session_stayed_active && r.state_continuous &&
                 r.probes_lost <= 5;
    worst_standby_blackout = std::max(worst_standby_blackout, r.blackout_ms);
  }
  for (const CrashResult& r : without_standby) {
    best_failover_blackout = std::min(best_failover_blackout, r.blackout_ms);
  }
  // The standby path must beat the tunnel-failover path by a wide margin.
  const bool faster = worst_standby_blackout * 5 <= best_failover_blackout;
  // Migration blackout bounded: a handful of in-flight probes at 10 ms.
  const bool migration_ok = mig.migrated && mig.handoffs == 1 &&
                            mig.state_continuous && mig.old_session_gone &&
                            mig.probes_lost <= 5 &&
                            mig.longest_gap_ms <= 200.0;

  bench::JsonWriter json;
  json.begin_object()
      .field("bench", "e18_survivability")
      .field("quick", quick)
      .begin_array("crash");
  for (std::size_t i = 0; i < with_standby.size(); ++i) {
    crash_json(json, with_standby[i]);
    crash_json(json, without_standby[i]);
  }
  json.end_array()
      .begin_object("migration")
      .field("probes_sent", mig.probes_sent)
      .field("probes_lost", mig.probes_lost)
      .field("longest_gap_ms", mig.longest_gap_ms, 3)
      .field("handoffs", mig.handoffs)
      .field("state_requests", mig.state_requests)
      .field("state_continuous", mig.state_continuous)
      .field("old_session_gone", mig.old_session_gone)
      .field("deterministic", deterministic)
      .end_object()
      .field("standby_ok", standby_ok)
      .field("standby_faster_5x", faster)
      .field("migration_ok", migration_ok)
      .end_object();
  const bool wrote = bench::write_json(json, "BENCH_survivability.json");

  bench::JsonWriter line(/*pretty=*/false);
  line.begin_object()
      .field("experiment", "e18_survivability")
      .field("standby_blackout_ms", worst_standby_blackout, 3)
      .field("failover_blackout_ms", best_failover_blackout, 3)
      .field("migration_gap_ms", mig.longest_gap_ms, 3)
      .field("migration_lost", mig.probes_lost)
      .field("standby_ok", standby_ok)
      .field("migration_ok", migration_ok)
      .field("deterministic", deterministic)
      .end_object();
  std::printf("\nJSON: %s\n", line.str().c_str());

  // Acceptance gates: fail loudly so CI catches a survivability regression.
  return (wrote && standby_ok && faster && migration_ok && deterministic)
             ? 0
             : 1;
}

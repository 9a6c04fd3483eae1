// E19 — Adversarial robustness: overload storms and untrusted hosts.
//
// The paper's deployment story (§3.1, §3.3) assumes access networks that may
// be overloaded, mispriced, or actively hostile, and devices that must keep
// working anyway. This bench measures the adversarial-hardening layer at
// population scale:
//
//   1. Flash-crowd deploy storm: a fleet of clients deploys at once against
//      one server. With admission control the server sheds the excess with
//      explicit kBusy NAKs (+ retry-after) and the pending queue stays
//      bounded; the fleet still converges to fully active with nobody
//      stranded.
//   2. Mass lease expiry: every lease in a population expires in the same
//      instant. The amortized sweep drains the backlog in bounded batches
//      instead of stalling the event loop on one giant tick, and reclaims
//      all middlebox memory.
//   3. Malicious host in the auction: a rogue server undercuts every honest
//      offer. A defended fleet (offer vetting + shared reputation) never
//      deploys on it and quarantines it; an undefended fleet hands its
//      deployments to the attacker.
//   4. Byzantine standby: a standby that lies about applied checkpoints is
//      detected by digest cross-check, demoted, and re-mirrored onto a
//      healthy pool — and the deployment still survives a primary crash.
//
// Writes BENCH_adversarial.json (override with PVN_BENCH_JSON) and prints a
// trailing JSON: line; PVN_BENCH_QUICK=1 / --quick shrinks the population.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "testbed/population.h"
#include "testbed/testbed.h"

using namespace pvn;

namespace {

// --- Scenario 1: flash-crowd deploy storm ------------------------------------

struct StormResult {
  bool defended = false;  // admission control on
  int clients = 0;
  int active = 0;
  int stranded = 0;  // not active at the horizon
  double time_to_all_active_s = -1.0;
  std::uint64_t sheds = 0;
  std::uint64_t busy_nacks = 0;  // fleet-side kBusy count
  std::size_t max_pending_observed = 0;
};

StormResult run_storm(int clients, std::size_t max_pending,
                      std::uint64_t seed) {
  PopulationConfig cfg;
  cfg.clients = clients;
  cfg.seed = seed;
  cfg.lease_duration = seconds(30);
  cfg.max_pending_deploys = max_pending;
  PopulationTestbed tb(cfg);

  ClientConfig base;
  // Shed clients should come back quickly — the bench measures how fast the
  // fleet converges, not how patient the default backoff is.
  base.session.fallback_retry = seconds(1);
  tb.make_agents(base);
  // The whole fleet wakes up inside one offer-collection window: the server
  // sees the deploy burst as a single undifferentiated spike.
  for (auto& agent : tb.agents) {
    agent->start_session(tb.addrs.control_a);
  }

  const SimTime horizon = seconds(30);
  SimTime all_active_at = 0;
  std::size_t max_pending_seen = 0;
  for (SimTime t = 0; t < horizon; t += milliseconds(25)) {
    tb.net.sim().schedule_at(t, [&] {
      max_pending_seen =
          std::max(max_pending_seen, tb.a.server->pending_deploys());
      if (all_active_at == 0 && tb.active_agents() == cfg.clients) {
        all_active_at = tb.net.sim().now();
      }
    });
  }
  tb.net.sim().run_until(horizon);

  StormResult r;
  r.defended = max_pending > 0;
  r.clients = cfg.clients;
  r.active = tb.active_agents();
  r.stranded = cfg.clients - r.active;
  if (all_active_at > 0) r.time_to_all_active_s = to_seconds(all_active_at);
  r.sheds = tb.a.server->deploys_shed();
  for (const auto& agent : tb.agents) r.busy_nacks += agent->busy_nacks();
  r.max_pending_observed = max_pending_seen;
  return r;
}

// --- Scenario 2: mass lease expiry -------------------------------------------

struct ExpiryResult {
  bool defended = false;  // bounded sweep batches
  int clients = 0;
  std::uint64_t expired = 0;
  std::uint64_t sweep_ticks = 0;
  std::uint64_t max_swept_per_tick = 0;
  std::int64_t memory_left = 0;
};

ExpiryResult run_mass_expiry(int clients, std::size_t max_per_sweep,
                             std::uint64_t seed) {
  PopulationConfig cfg;
  cfg.clients = clients;
  cfg.seed = seed;
  cfg.lease_duration = seconds(1);
  cfg.max_expiries_per_sweep = max_per_sweep;
  PopulationTestbed tb(cfg);

  // One-shot deploys, nobody renews: every lease in the population expires
  // in the same window and arrives at the sweeper as one backlog.
  tb.make_agents();
  for (auto& agent : tb.agents) {
    agent->discover_and_deploy(tb.addrs.control_a, [](const DeployOutcome&) {});
  }
  tb.net.sim().run_until(seconds(8));

  ExpiryResult r;
  r.defended = max_per_sweep > 0;
  r.clients = clients;
  r.expired = tb.a.server->leases_expired();
  r.sweep_ticks = tb.a.server->sweep_ticks();
  r.max_swept_per_tick = tb.a.server->max_swept_per_tick();
  r.memory_left = tb.a.mbox->memory_in_use();
  return r;
}

// --- Scenario 3: malicious host in the auction -------------------------------

struct RogueResult {
  bool defended = false;  // vetting + shared reputation on
  int clients = 0;
  int active_honest = 0;       // sessions active on an honest network
  std::uint64_t victims = 0;   // deployments acked by the rogue
  std::uint64_t offers_rejected = 0;
  bool rogue_quarantined = false;
};

RogueResult run_rogue_auction(int clients, bool defended, std::uint64_t seed) {
  PopulationConfig cfg;
  cfg.clients = clients;
  cfg.seed = seed;
  cfg.lease_duration = seconds(30);
  cfg.rogue = true;
  cfg.rogue_mode = RogueMode::kBogusOffers;
  PopulationTestbed tb(cfg);

  ClientConfig base;
  base.extra_servers = {tb.addrs.rogue};  // the rogue joins every auction
  base.vet_offers = defended;
  tb.make_agents(base, /*shared_scoreboard=*/defended);
  for (auto& agent : tb.agents) {
    agent->start_session(tb.addrs.control_a);
  }
  tb.net.sim().run_until(seconds(5));

  RogueResult r;
  r.defended = defended;
  r.clients = clients;
  r.active_honest = 0;
  for (const auto& agent : tb.agents) {
    const bool on_rogue =
        agent->chain_id().rfind("rogue:", 0) == 0;
    if (agent->state() == SessionState::kActive && !on_rogue) {
      ++r.active_honest;
    }
    r.offers_rejected += agent->offers_rejected();
  }
  r.victims = tb.rogue->fake_acks();
  r.rogue_quarantined =
      defended && tb.scoreboard.quarantined("10.0.2.5", tb.net.sim().now());
  return r;
}

// --- Scenario 4: Byzantine standby -------------------------------------------

struct ByzantineResult {
  std::uint64_t bad_state_acks = 0;
  std::uint64_t demoted = 0;
  std::uint64_t remirrored = 0;
  std::uint64_t promotions = 0;
  bool survived_crash = false;  // active session after primary crash
  std::uint64_t chains_lost = 0;
};

ByzantineResult run_byzantine_standby(std::uint64_t seed) {
  TestbedConfig cfg;
  cfg.standby = true;
  cfg.extra_standby_pools = 1;
  cfg.lease_duration = seconds(2);
  cfg.checkpoint_interval = milliseconds(100);
  cfg.seed = seed;
  Testbed tb(cfg);
  // The first-choice standby lies: it acks every checkpoint with the digest
  // of garbage it never applied.
  tb.standby_agent->set_byzantine(true);

  Pvnc pvnc;
  pvnc.name = "alice-phone";
  pvnc.chain.push_back(PvncModule{"tls-validator", {{"mode", "block"}}});
  pvnc.chain.push_back(PvncModule{"classifier", {}});

  ClientConfig ccfg;
  ccfg.constraints.required_modules = {"tls-validator"};
  PvnClient agent(*tb.client, pvnc, ccfg);
  agent.set_fallback(tb.device_tunnel.get());
  agent.start_session(tb.addrs.control);

  // Give the digest cross-check time to catch the liar and re-mirror, then
  // kill the primary: the promotion must come from the healthy pool.
  tb.net.sim().schedule_at(seconds(3), [&] { tb.mbox_host->crash(); });
  tb.net.sim().run_until(seconds(8));

  ByzantineResult r;
  r.bad_state_acks = tb.server->bad_state_acks();
  r.demoted = tb.server->standbys_demoted();
  r.remirrored = tb.server->standbys_remirrored();
  r.promotions = tb.server->standby_promotions();
  r.survived_crash = agent.state() == SessionState::kActive &&
                     tb.server->deployments_active() == 1;
  r.chains_lost = tb.server->chains_lost();
  return r;
}

// --- output helpers ----------------------------------------------------------

void storm_json(bench::JsonWriter& json, const StormResult& r) {
  json.begin_object()
      .field("defended", r.defended)
      .field("clients", r.clients)
      .field("active", r.active)
      .field("stranded", r.stranded)
      .field("time_to_all_active_s", r.time_to_all_active_s, 3)
      .field("sheds", r.sheds)
      .field("busy_nacks", r.busy_nacks)
      .field("max_pending_observed", r.max_pending_observed)
      .end_object();
}

void rogue_json(bench::JsonWriter& json, const RogueResult& r) {
  json.begin_object()
      .field("defended", r.defended)
      .field("clients", r.clients)
      .field("active_honest", r.active_honest)
      .field("victims", r.victims)
      .field("offers_rejected", r.offers_rejected)
      .field("rogue_quarantined", r.rogue_quarantined)
      .end_object();
}

}  // namespace

int main(int argc, char** argv) {
  pvn::bench::TelemetryScope telemetry(argc, argv);
  const bool quick = bench::quick_mode(argc, argv);

  bench::title("E19 adversarial robustness: storms + untrusted hosts",
               "admission control sheds flash crowds without stranding "
               "anyone, mass expiry drains in bounded batches, offer vetting "
               "+ shared reputation defeat a rogue auction host, and a "
               "Byzantine standby is demoted without losing the deployment");

  const std::uint64_t seed = 1;
  const int storm_clients = quick ? 12 : 32;
  const std::size_t storm_cap = 4;
  const int expiry_clients = quick ? 24 : 60;
  const std::size_t expiry_cap = 8;
  const int rogue_clients = quick ? 4 : 8;

  // --- 1. flash-crowd deploy storm ---------------------------------------
  bench::header({"admission", "clients", "active", "time-to-active s",
                 "sheds", "max pending"});
  const StormResult storm_def = run_storm(storm_clients, storm_cap, seed);
  const StormResult storm_undef = run_storm(storm_clients, 0, seed);
  for (const StormResult& r : {storm_def, storm_undef}) {
    bench::row(r.defended ? "bounded queue" : "unbounded", r.clients, r.active,
               r.time_to_all_active_s, static_cast<std::uint64_t>(r.sheds),
               static_cast<std::uint64_t>(r.max_pending_observed));
  }

  // Determinism gate: the same seed replays the exact same storm.
  const StormResult storm_replay = run_storm(storm_clients, storm_cap, seed);
  const bool deterministic =
      storm_replay.active == storm_def.active &&
      storm_replay.time_to_all_active_s == storm_def.time_to_all_active_s &&
      storm_replay.sheds == storm_def.sheds &&
      storm_replay.busy_nacks == storm_def.busy_nacks;

  // --- 2. mass lease expiry ----------------------------------------------
  std::printf("\n");
  bench::header({"sweep", "clients", "expired", "sweep ticks",
                 "max batch", "mem left"});
  const ExpiryResult exp_def = run_mass_expiry(expiry_clients, expiry_cap, seed);
  const ExpiryResult exp_undef = run_mass_expiry(expiry_clients, 0, seed);
  for (const ExpiryResult& r : {exp_def, exp_undef}) {
    bench::row(r.defended ? "bounded batches" : "unbounded", r.clients,
               static_cast<std::uint64_t>(r.expired),
               static_cast<std::uint64_t>(r.sweep_ticks),
               static_cast<std::uint64_t>(r.max_swept_per_tick),
               static_cast<std::uint64_t>(r.memory_left));
  }

  // --- 3. malicious host in the auction ----------------------------------
  std::printf("\n");
  bench::header({"fleet", "clients", "active honest", "victims",
                 "vetted out", "quarantined"});
  const RogueResult rog_def = run_rogue_auction(rogue_clients, true, seed);
  const RogueResult rog_undef = run_rogue_auction(rogue_clients, false, seed);
  for (const RogueResult& r : {rog_def, rog_undef}) {
    bench::row(r.defended ? "defended" : "undefended", r.clients,
               r.active_honest, static_cast<std::uint64_t>(r.victims),
               static_cast<std::uint64_t>(r.offers_rejected),
               r.rogue_quarantined ? "yes" : "no");
  }

  // --- 4. Byzantine standby ----------------------------------------------
  std::printf("\n");
  bench::header({"metric", "value"});
  const ByzantineResult byz = run_byzantine_standby(seed);
  bench::row("bad state acks", static_cast<std::uint64_t>(byz.bad_state_acks));
  bench::row("standbys demoted", static_cast<std::uint64_t>(byz.demoted));
  bench::row("re-mirrored", static_cast<std::uint64_t>(byz.remirrored));
  bench::row("promotions", static_cast<std::uint64_t>(byz.promotions));
  bench::row("survived crash", byz.survived_crash ? "yes" : "NO");
  bench::row("chains lost", static_cast<std::uint64_t>(byz.chains_lost));

  // --- acceptance gates ----------------------------------------------------
  // Admission control must shed visibly, bound the queue, and still get the
  // whole fleet active.
  const bool storm_ok = storm_def.stranded == 0 && storm_def.sheds > 0 &&
                        storm_def.busy_nacks > 0 &&
                        storm_def.max_pending_observed <= storm_cap &&
                        storm_def.time_to_all_active_s > 0.0;
  const bool expiry_ok =
      exp_def.expired == static_cast<std::uint64_t>(exp_def.clients) &&
      exp_def.max_swept_per_tick <= expiry_cap &&
      exp_def.sweep_ticks >= exp_def.expired / expiry_cap &&
      exp_def.memory_left == 0;
  // The defended fleet never touches the rogue; the undefended fleet proves
  // the attack is real by actually falling for it.
  const bool rogue_ok = rog_def.victims == 0 &&
                        rog_def.active_honest == rog_def.clients &&
                        rog_def.rogue_quarantined && rog_undef.victims > 0;
  const bool byz_ok = byz.bad_state_acks >= 3 && byz.demoted == 1 &&
                      byz.remirrored >= 1 && byz.promotions == 1 &&
                      byz.survived_crash && byz.chains_lost == 0;

  bench::JsonWriter json;
  json.begin_object()
      .field("bench", "e19_adversarial")
      .field("quick", quick)
      .begin_array("storm");
  storm_json(json, storm_def);
  storm_json(json, storm_undef);
  json.end_array()
      .begin_object("mass_expiry")
      .field("clients", exp_def.clients)
      .field("expired", exp_def.expired)
      .field("sweep_ticks", exp_def.sweep_ticks)
      .field("max_swept_per_tick", exp_def.max_swept_per_tick)
      .field("cap", expiry_cap)
      .field("memory_left", exp_def.memory_left)
      .end_object()
      .begin_array("rogue");
  rogue_json(json, rog_def);
  rogue_json(json, rog_undef);
  json.end_array()
      .begin_object("byzantine")
      .field("bad_state_acks", byz.bad_state_acks)
      .field("demoted", byz.demoted)
      .field("remirrored", byz.remirrored)
      .field("promotions", byz.promotions)
      .field("survived_crash", byz.survived_crash)
      .field("chains_lost", byz.chains_lost)
      .end_object()
      .field("storm_ok", storm_ok)
      .field("expiry_ok", expiry_ok)
      .field("rogue_ok", rogue_ok)
      .field("byzantine_ok", byz_ok)
      .field("deterministic", deterministic)
      .end_object();
  const bool wrote = bench::write_json(json, "BENCH_adversarial.json");

  bench::JsonWriter line(/*pretty=*/false);
  line.begin_object()
      .field("experiment", "e19_adversarial")
      .field("storm_time_to_active_s", storm_def.time_to_all_active_s, 3)
      .field("storm_sheds", storm_def.sheds)
      .field("expiry_max_batch", exp_def.max_swept_per_tick)
      .field("rogue_victims_defended", rog_def.victims)
      .field("rogue_victims_undefended", rog_undef.victims)
      .field("storm_ok", storm_ok)
      .field("expiry_ok", expiry_ok)
      .field("rogue_ok", rogue_ok)
      .field("byzantine_ok", byz_ok)
      .field("deterministic", deterministic)
      .end_object();
  std::printf("\nJSON: %s\n", line.str().c_str());

  // Acceptance gates: fail loudly so CI catches a robustness regression.
  return (wrote && storm_ok && expiry_ok && rogue_ok && byz_ok &&
          deterministic)
             ? 0
             : 1;
}

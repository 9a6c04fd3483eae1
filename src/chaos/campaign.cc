#include "chaos/campaign.h"

#include "chaos/planner.h"
#include "chaos/runner.h"
#include "netsim/faults.h"
#include "telemetry/metrics.h"

namespace pvn {

namespace {

PopulationConfig testbed_config(const ChaosSchedule& schedule) {
  const ChaosScenario& sc = schedule.scenario;
  PopulationConfig pcfg;
  pcfg.clients = static_cast<int>(sc.clients);
  pcfg.seed = schedule.seed;
  pcfg.lease_duration = sc.lease;
  pcfg.standbys = sc.standbys;
  pcfg.checkpoint_interval = sc.standbys ? milliseconds(200) : 0;
  pcfg.rogue = sc.rogue;
  pcfg.rogue_mode = RogueMode::kBogusOffers;
  pcfg.max_pending_deploys = sc.max_pending_deploys;
  pcfg.max_expiries_per_sweep = sc.max_expiries_per_sweep;
  return pcfg;
}

ClientConfig fleet_config(const PopulationTestbed& tb) {
  ClientConfig base;
  // Faster rediscovery than the defaults: chaos settles within the
  // schedule's settle tail instead of the 40 s production backoff cap.
  base.session.fallback_retry = seconds(2);
  base.session.fallback_retry_max = seconds(8);
  base.extra_servers.push_back(tb.addrs.control_b);
  if (tb.rogue_host != nullptr) {
    base.extra_servers.push_back(tb.addrs.rogue);
  }
  return base;
}

Digest run_digest(const PopulationTestbed& tb, const FaultInjector& faults,
                  const std::vector<InvariantViolation>& violations) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(faults.events().size()));
  for (const FaultEvent& e : faults.events()) {
    w.i64(e.at);
    w.str(e.kind);
    w.str(e.target);
  }
  w.u32(static_cast<std::uint32_t>(violations.size()));
  for (const InvariantViolation& v : violations) {
    w.i64(v.at);
    w.str(v.invariant);
    w.str(v.detail);
  }
  for (const auto& agent : tb.agents) {
    w.u8(static_cast<std::uint8_t>(agent->state()));
    w.u64(agent->retransmissions());
    w.u64(agent->renews_sent());
    w.u64(agent->renews_acked());
    w.u64(agent->migrations());
    w.u64(agent->failovers());
    w.u64(agent->recoveries());
  }
  const auto server_lane = [&](const DeploymentServer* server) {
    if (server == nullptr) return;
    w.u64(server->deployments_active());
    w.u64(server->deployments_total());
    w.u64(server->duplicate_deploys());
    w.u64(server->leases_expired());
    w.u64(server->deploys_shed());
    w.u64(server->standby_promotions());
    w.u64(server->standbys_demoted());
    for (const std::string& dev : server->deployed_devices()) w.str(dev);
  };
  server_lane(tb.a.server.get());
  server_lane(tb.b.server.get());
  w.u64(tb.scoreboard.violations());
  return digest_of(std::move(w).take());
}

}  // namespace

ChaosRunResult run_schedule(const ChaosSchedule& schedule,
                            InvariantAuditorConfig auditor_cfg) {
  // The registry is process-global and accumulates across in-process runs;
  // without a reset, slack from an earlier run can mask this run's
  // conservation violations (or a planted inflation could leak into the
  // next run's audit).
  telemetry::MetricsRegistry::global().reset();

  PopulationTestbed tb(testbed_config(schedule));
  tb.make_agents(fleet_config(tb), /*shared_scoreboard=*/true);

  // Stagger session starts a little so discovery doesn't open in lockstep
  // (the renewal jitter takes over from there).
  for (std::size_t i = 0; i < tb.agents.size(); ++i) {
    PvnClient* agent = tb.agents[i].get();
    Ipv4Addr first = tb.addrs.control_a;
    tb.net.sim().schedule_at(
        milliseconds(10) + milliseconds(5) * static_cast<std::int64_t>(i),
        SimCategory::kPvnControl,
        [agent, first] { agent->start_session(first); });
  }

  FaultInjector faults(tb.net);
  ChaosRunner runner(tb, faults);
  runner.arm(schedule);

  InvariantAuditor auditor(tb, auditor_cfg);
  auditor.arm(schedule.horizon());

  tb.net.sim().run_until(schedule.horizon());
  auditor.audit_quiescent();

  ChaosRunResult result;
  result.violations = auditor.violations();
  result.fault_events = faults.events().size();
  result.active_at_end = tb.active_agents();
  result.fallback_at_end = tb.fallback_agents();
  for (const DeploymentServer* server :
       {tb.a.server.get(), tb.b.server.get()}) {
    if (server == nullptr) continue;
    result.deploys_total += server->deployments_total();
    result.leases_expired += server->leases_expired();
    result.standby_promotions += server->standby_promotions();
  }
  for (const auto& agent : tb.agents) result.migrations += agent->migrations();
  result.scoreboard_violations = tb.scoreboard.violations();
  result.digest = run_digest(tb, faults, result.violations);
  return result;
}

ChaosCampaignResult run_campaign(std::uint64_t base_seed, int seeds,
                                 const ChaosPlannerConfig& planner_cfg) {
  ChaosCampaignResult campaign;
  campaign.runs.reserve(static_cast<std::size_t>(seeds));
  for (int i = 0; i < seeds; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    const ChaosSchedule schedule = ChaosPlanner::plan(seed, planner_cfg);
    const ChaosRunResult run = run_schedule(schedule);
    ChaosCampaignResult::PerSeed per;
    per.seed = seed;
    per.events = schedule.events.size();
    per.clean = run.clean();
    per.first_violation = run.first_violation_class();
    per.digest = run.digest;
    campaign.runs.push_back(std::move(per));
    if (!run.clean()) {
      ++campaign.failed_seeds;
      campaign.violations_total += static_cast<int>(run.violations.size());
    }
  }
  return campaign;
}

}  // namespace pvn

#include "chaos/runner.h"

#include <algorithm>

#include "telemetry/metrics.h"

namespace pvn {

ChaosRunner::ChaosRunner(PopulationTestbed& tb, FaultInjector& faults)
    : tb_(&tb), faults_(&faults) {}

void ChaosRunner::arm(const ChaosSchedule& schedule) {
  for (const ChaosEvent& e : schedule.events) arm_event(e);
}

void ChaosRunner::arm_event(const ChaosEvent& e) {
  Simulator& sim = tb_->net.sim();
  switch (e.kind) {
    case ChaosEventKind::kLinkFlap: {
      if (e.target >= tb_->access_links.size()) return;
      faults_->link_flap(*tb_->access_links[e.target], e.at, e.duration);
      break;
    }
    case ChaosEventKind::kLossBurst: {
      if (e.target >= tb_->access_links.size()) return;
      faults_->loss_burst(*tb_->access_links[e.target], e.at, e.duration,
                          e.loss);
      break;
    }
    case ChaosEventKind::kPartition: {
      Link* uplink = e.target == 0 ? tb_->uplink_a : tb_->uplink_b;
      if (uplink == nullptr) return;
      faults_->partition({uplink}, e.at, e.duration);
      break;
    }
    case ChaosEventKind::kClientCrash: {
      if (e.target >= tb_->clients.size()) return;
      faults_->node_crash(*tb_->clients[e.target], e.at, e.duration);
      break;
    }
    case ChaosEventKind::kServerCrash: {
      Host* control = e.target == 0 ? tb_->control_a : tb_->control_b;
      if (control == nullptr) return;
      faults_->node_crash(*control, e.at, e.duration);
      break;
    }
    case ChaosEventKind::kMboxCrash: {
      MboxHost* mbox =
          e.target == 0 ? tb_->a.mbox.get() : tb_->b.mbox.get();
      if (mbox == nullptr) return;
      const std::string name =
          e.target == 0 ? "pop-mbox-a" : "pop-mbox-b";
      const SimDuration downtime = e.duration;
      sim.schedule_at(e.at, SimCategory::kFault,
                      [this, mbox, name, downtime] {
                        faults_->crash_and_restart(
                            name, downtime, [mbox] { mbox->crash(); },
                            [mbox] { mbox->restart(); });
                      });
      break;
    }
    case ChaosEventKind::kRogueMode: {
      if (!tb_->rogue) return;
      RogueServer* rogue = tb_->rogue.get();
      const RogueMode mode = e.arg == 0 ? RogueMode::kBogusOffers
                                        : RogueMode::kNakFlood;
      sim.schedule_at(e.at, SimCategory::kFault,
                      [rogue, mode] { rogue->set_mode(mode); });
      break;
    }
    case ChaosEventKind::kByzantineStandby: {
      StandbyAgent* agent = e.target == 0 ? tb_->a.standby_agent.get()
                                          : tb_->b.standby_agent.get();
      if (agent == nullptr) return;
      sim.schedule_at(e.at, SimCategory::kFault,
                      [agent] { agent->set_byzantine(true); });
      sim.schedule_at(e.at + e.duration, SimCategory::kFault,
                      [agent] { agent->set_byzantine(false); });
      break;
    }
    case ChaosEventKind::kHandoverStorm: {
      const std::uint32_t wave = e.arg;
      sim.schedule_at(e.at, SimCategory::kFault, [this, wave] {
        // The first `wave` active agents all migrate to the other access
        // network in the same instant — a city-block handover.
        std::uint32_t moved = 0;
        for (auto& agent : tb_->agents) {
          if (moved >= wave) break;
          if (agent->state() != SessionState::kActive || agent->migrating()) {
            continue;
          }
          const Ipv4Addr to = agent->active_server() == tb_->addrs.control_a
                                  ? tb_->addrs.control_b
                                  : tb_->addrs.control_a;
          agent->migrate(to, milliseconds(50));
          ++moved;
        }
      });
      break;
    }
    case ChaosEventKind::kPlantedBug: {
      const PlantedBug bug = static_cast<PlantedBug>(e.arg);
      sim.schedule_at(e.at, SimCategory::kFault,
                      [this, bug] { apply_planted(bug); });
      break;
    }
  }
  ++armed_;
}

void ChaosRunner::apply_planted(PlantedBug bug) {
  switch (bug) {
    case PlantedBug::kConservation:
      // Inflate switch ingress beyond what any link delivered: breaks the
      // links-cover-ingress conservation identity.
      telemetry::MetricsRegistry::global()
          .counter("sdn.switch.packets_in", PopulationTestbed::kSwitchA)
          .inc(1'000'000);
      break;
    case PlantedBug::kStuckSession:
      // Quietly park agent 0: no teardown, no fallback, no rediscovery.
      if (!tb_->agents.empty()) tb_->agents[0]->stop_session();
      break;
    case PlantedBug::kLeaseLeak:
      // Pause reclamation AND stop agent 0's renewals (stop_session sends
      // no teardown): its lease expires and then lingers past the sweep
      // grace — the stale-lease invariant must fire mid-run.
      if (tb_->a.server) tb_->a.server->debug_pause_sweep(true);
      if (tb_->b.server) tb_->b.server->debug_pause_sweep(true);
      if (!tb_->agents.empty()) tb_->agents[0]->stop_session();
      break;
    case PlantedBug::kMemoryLeak: {
      // A chain no deployment owns: as if a teardown path forgot one.
      if (!tb_->a.store || !tb_->a.mbox) break;
      std::vector<std::unique_ptr<Middlebox>> orphan;
      orphan.push_back(tb_->a.store->make("tracker-blocker", {}));
      if (orphan.back()) {
        tb_->a.mbox->build_chain("chain:orphan", std::move(orphan),
                                 [](Chain*) {});
      }
      break;
    }
    case PlantedBug::kReputation:
      // Distrust with no report behind it.
      tb_->scoreboard.debug_add_distrust(tb_->addrs.control_a.to_string(),
                                         0.3, tb_->net.sim().now());
      break;
    case PlantedBug::kReplyCache:
      if (tb_->a.server) tb_->a.server->debug_bump_duplicates(1'000'000);
      break;
  }
}

}  // namespace pvn

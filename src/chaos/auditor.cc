#include "chaos/auditor.h"

#include <cstddef>

#include "audit/telemetry_check.h"
#include "telemetry/metrics.h"

namespace pvn {

InvariantAuditor::InvariantAuditor(PopulationTestbed& tb,
                                   InvariantAuditorConfig cfg)
    : tb_(&tb), cfg_(cfg) {}

void InvariantAuditor::arm(SimTime until) {
  // One audit per period across the whole run, scheduled up front: the
  // count is bounded (run length / period) and the schedule order is
  // trivially deterministic.
  Simulator& sim = tb_->net.sim();
  const SimTime first =
      std::max<SimTime>(sim.now() + milliseconds(1), cfg_.period);
  for (SimTime when = first; when <= until; when += cfg_.period) {
    sim.schedule_at(when, [this] { audit(); });
  }
}

void InvariantAuditor::flag(const std::string& invariant, std::string detail) {
  InvariantViolation v;
  v.at = tb_->net.sim().now();
  v.invariant = invariant;
  v.detail = std::move(detail);
  // Violations are rare, so the SLO-context capture can afford a monitor
  // evaluation and a trace assembly.
  if (health_ != nullptr) {
    health_->evaluate(v.at);
    v.alerts = health_->alerts();
  }
  const telemetry::TraceAssembler assembler(telemetry::SpanRecorder::global());
  if (auto traces = assembler.traces(); !traces.empty()) {
    v.trace = std::move(traces.back());  // newest trace_id
  }
  violations_.push_back(std::move(v));
}

void InvariantAuditor::audit() {
  check_conservation();
  check_stale_leases();
  check_reply_cache();
  check_reputation();
}

void InvariantAuditor::check_conservation() {
  TelemetryAuditor auditor;
  const auto findings = auditor.check_dataplane_consistency(
      telemetry::MetricsRegistry::global().snapshot());
  for (const TelemetryFinding& f : findings) {
    flag("conservation", f.check + ": " + f.detail);
  }
}

void InvariantAuditor::check_stale_leases() {
  const SimTime now = tb_->net.sim().now();
  // The default grace covers the sweep cadence (lease/4) plus the
  // bounded-batch drain tail with margin.
  const SimDuration grace =
      cfg_.lease_grace > 0 ? cfg_.lease_grace
                           : tb_->config().lease_duration / 2 + seconds(2);
  const auto check_server = [&](const DeploymentServer* server,
                                const char* name) {
    if (server == nullptr) return;
    for (const std::string& dev : server->deployed_devices()) {
      const auto view = server->deployment_view(dev);
      if (!view.found || view.lease_expires_at == 0) continue;
      if (now > view.lease_expires_at + grace) {
        flag("stale-lease",
             std::string(name) + "/" + dev + " lease expired " +
                 format_duration(now - view.lease_expires_at) +
                 " ago and was never reclaimed");
      }
    }
  };
  check_server(tb_->a.server.get(), "net-a");
  check_server(tb_->b.server.get(), "net-b");
}

void InvariantAuditor::check_reply_cache() {
  std::uint64_t duplicates = 0;
  if (tb_->a.server) duplicates += tb_->a.server->duplicate_deploys();
  if (tb_->b.server) duplicates += tb_->b.server->duplicate_deploys();
  std::uint64_t retransmissions = 0;
  for (const auto& agent : tb_->agents) {
    retransmissions += agent->retransmissions();
  }
  if (duplicates > retransmissions) {
    flag("reply-cache",
         "servers deduplicated " + std::to_string(duplicates) +
             " deploys but the fleet only retransmitted " +
             std::to_string(retransmissions) +
             " times (cache hits exceed causes)");
  }
}

void InvariantAuditor::check_reputation() {
  const SimTime now = tb_->net.sim().now();
  std::vector<std::string> hosts = {tb_->addrs.control_a.to_string(),
                                    tb_->addrs.control_b.to_string()};
  if (tb_->rogue_host != nullptr) {
    hosts.push_back(tb_->addrs.rogue.to_string());
  }
  std::map<std::string, double> scores;
  for (const std::string& host : hosts) {
    scores[host] = tb_->scoreboard.score(host, now);
  }
  const std::uint64_t violation_count = tb_->scoreboard.violations();
  if (have_baseline_ && violation_count == last_violation_count_) {
    // No misbehavior was recorded since the last cut, so every score can
    // only have decayed upward. A drop means distrust appeared from
    // nowhere (e.g. the planted kReputation hook).
    for (const auto& [host, score] : scores) {
      const auto it = last_scores_.find(host);
      if (it != last_scores_.end() && score < it->second - 1e-9) {
        flag("reputation",
             host + " score fell " + std::to_string(it->second) + " -> " +
                 std::to_string(score) + " with no recorded violation");
      }
    }
  }
  have_baseline_ = true;
  last_violation_count_ = violation_count;
  last_scores_ = std::move(scores);
}

void InvariantAuditor::audit_quiescent() {
  audit();

  // stuck-session: with every fault window closed and the settle tail
  // elapsed, each agent must be back on a PVN. The only excuse is the whole
  // honest-server set being quarantined (a reputation storm the fleet
  // cannot route around) — anything else parked off-PVN is a recovery bug.
  const SimTime now = tb_->net.sim().now();
  const bool all_quarantined =
      tb_->scoreboard.quarantined(tb_->addrs.control_a.to_string(), now) &&
      tb_->scoreboard.quarantined(tb_->addrs.control_b.to_string(), now);
  for (std::size_t i = 0; i < tb_->agents.size(); ++i) {
    const SessionState state = tb_->agents[i]->state();
    if (state == SessionState::kActive) continue;
    if (all_quarantined && state != SessionState::kIdle) continue;
    flag("stuck-session",
         "agent " + std::to_string(i) + " is " + to_string(state) +
             " at quiescence");
  }

  // memory-leak: every instance in a primary pool is owned by some live,
  // unpromoted deployment (degraded ones may hold fewer — never more).
  const auto check_pool = [&](const PopulationTestbed::AccessNet& an,
                              const char* name) {
    if (!an.server || !an.mbox) return;
    std::size_t expected = 0;
    for (const std::string& dev : an.server->deployed_devices()) {
      const auto view = an.server->deployment_view(dev);
      if (!view.found || view.promoted) continue;
      expected += view.modules.size();
    }
    const int instances = an.mbox->instances();
    if (instances > static_cast<int>(expected)) {
      flag("memory-leak",
           std::string(name) + " primary pool holds " +
               std::to_string(instances) + " instances but deployments " +
               "account for only " + std::to_string(expected));
    }
  };
  check_pool(tb_->a, "net-a");
  check_pool(tb_->b, "net-b");

  // standby-shape: standby state can only exist where standbys are wired.
  if (tb_->standby_host_a == nullptr) {
    const auto check_shape = [&](const DeploymentServer* server,
                                 const char* name) {
      if (server == nullptr) return;
      for (const std::string& dev : server->deployed_devices()) {
        const auto view = server->deployment_view(dev);
        if (view.standby_ready || view.promoted) {
          flag("standby-shape",
               std::string(name) + "/" + dev +
                   " reports standby state in a standby-less scenario");
        }
      }
    };
    check_shape(tb_->a.server.get(), "net-a");
    check_shape(tb_->b.server.get(), "net-b");
  }
}

}  // namespace pvn

// Global invariant auditing.
//
// The InvariantAuditor watches a PopulationTestbed while a chaos schedule
// runs and checks system-wide invariants in audit events, one per period.
// Two classes of check:
//
//  Always (every audit period, faults may be live):
//   * conservation  — the telemetry layer accounts agree across layers:
//                     links delivered >= switch ingress, meter drops bounded,
//                     flow-table lookups cover ingress (TelemetryAuditor).
//   * stale-lease   — no deployment's lease sits expired past the sweep
//                     grace (expiry reclamation is actually running).
//   * reply-cache   — deploy deduplications never exceed the fleet's
//                     retransmissions (a reply-cache hit needs a retransmit
//                     to have happened; losses only reduce receipts).
//   * reputation    — no host's score drops between cuts unless a violation
//                     was recorded in between (scores only decay *upward*
//                     absent reports).
//
//  At quiescence (after every fault window closed + the settle tail):
//   * stuck-session — every agent reconverged to kActive (an agent parked
//                     in fallback with healthy servers available is a bug).
//   * memory-leak   — each primary mbox pool holds at most the instances
//                     its server's live deployments account for (orphaned
//                     instances mean teardown leaked).
//   * standby-shape — standby/promotion flags only appear when the scenario
//                     wired standby pools.
//
// Each planted bug in chaos/schedule.h PlantedBug breaks exactly one of
// these classes; tests/chaos_test.cc asserts detection per class.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ops/health.h"
#include "telemetry/assembler.h"
#include "testbed/population.h"

namespace pvn {

struct InvariantViolation {
  SimTime at = 0;
  std::string invariant;  // class id, e.g. "stale-lease"
  std::string detail;
  // SLO context captured when the violation was flagged (populated when a
  // HealthMonitor is wired via set_health_monitor): the typed alert list as
  // the health plane saw it at this cut. A violation report therefore
  // carries "what the pager would have said" alongside the invariant.
  std::vector<OpsAlert> alerts;
  // The newest stitched causal trace at flag time (highest trace_id across
  // the global span recorder) — the deploy/migration the system was in the
  // middle of when the invariant broke. nullopt when nothing was traced.
  std::optional<telemetry::AssembledTrace> trace;
};

struct InvariantAuditorConfig {
  SimDuration period = milliseconds(500);
  // Slack past a lease's nominal expiry before an unreclaimed deployment is
  // a violation; must cover the sweep granularity (lease/4) plus drain.
  // 0 = derive from the testbed's lease (lease/2 + 2 s).
  SimDuration lease_grace = 0;
};

class InvariantAuditor {
 public:
  InvariantAuditor(PopulationTestbed& tb, InvariantAuditorConfig cfg = {});

  // Optional: violations flagged after this carry the monitor's alert list
  // (evaluated at the flagging cut) plus the newest assembled causal trace.
  void set_health_monitor(HealthMonitor* hm) { health_ = hm; }

  // Schedules one audit event per period until `until` on tb.net.sim(),
  // the first at max(now + 1 ms, period). Call before running the schedule.
  void arm(SimTime until);

  // The always-on invariant checks, at the current simulated time. Runs in
  // every armed audit event; callable directly from tests.
  void audit();

  // The end-of-run checks; call after the run drains past the horizon.
  void audit_quiescent();

  const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }

 private:
  void flag(const std::string& invariant, std::string detail);
  void check_conservation();
  void check_stale_leases();
  void check_reply_cache();
  void check_reputation();

  PopulationTestbed* tb_;
  InvariantAuditorConfig cfg_;
  HealthMonitor* health_ = nullptr;
  std::vector<InvariantViolation> violations_;
  // Reputation monotonicity state: last cut's scores + violation count.
  bool have_baseline_ = false;
  std::uint64_t last_violation_count_ = 0;
  std::map<std::string, double> last_scores_;
};

}  // namespace pvn

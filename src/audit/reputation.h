// Provider reputation (paper §3.1: violations "inform reputations for PVN
// providers"; §3.3: "face loss of revenue from blacklisting").
//
// Two generations coexist here:
//   - ReputationSystem: the original time-free score used by the auditor
//     (bench_e13, audit_demo) for offline blacklisting decisions.
//   - HostScoreboard: the adversarial-hardening layer's online reputation —
//     typed misbehavior reports with per-class severities, exponential
//     decay-based rehabilitation, and hysteresis quarantine so a host
//     hovering at the threshold does not flap in and out of selection.
//     PvnClients consult it during discovery to exclude quarantined hosts,
//     and the DeploymentServer feeds it on Byzantine-standby demotion.
// CircuitBreaker is the companion per-target breaker: reputation decides
// *whom to trust*, the breaker decides *when to stop hammering* a host that
// is currently failing, trusted or not.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "audit/measurements.h"
#include "telemetry/metrics.h"
#include "util/time.h"

namespace pvn {

class ReputationSystem {
 public:
  explicit ReputationSystem(double blacklist_threshold = 0.3)
      : threshold_(blacklist_threshold) {}

  // Score in [0,1]; unknown providers start at 1.0 ("trust but verify").
  double score(const std::string& provider) const;

  // Each verified violation multiplies the score by (1 - weight).
  void report_violation(const std::string& provider, double weight = 0.25);
  // Successful audits slowly rebuild trust.
  void report_clean_audit(const std::string& provider, double recovery = 0.02);

  bool blacklisted(const std::string& provider) const {
    return score(provider) < threshold_;
  }

  // Among candidates, the best non-blacklisted provider (highest score), or
  // empty if all are blacklisted — the "take their business to competing
  // PVN-supporting providers" decision.
  std::string pick_provider(const std::vector<std::string>& candidates) const;

 private:
  double threshold_;
  std::map<std::string, double> scores_;
};

// --- adversarial-hardening reputation (typed, decaying, hysteretic) --------

// What a host was observed doing wrong. Severity differs per class: a
// corrupt checkpoint is proof of misbehavior, a deploy timeout is weak
// circumstantial evidence (the host may just be overloaded).
enum class Misbehavior : std::uint8_t {
  kBogusOffer = 0,        // offer failed vet_offer sanity bounds
  kCorruptCheckpoint,     // digest cross-check failed / corrupt transfer
  kReplayedCheckpoint,    // stale seq replayed
  kNakFlood,              // sustained kBusy NAKs with no progress
  kCapacityLie,           // advertised capacity it demonstrably lacks
  kAuditFailure,          // auditor-verified violation (measurements.h)
  kDeployTimeout,         // acked nothing until the deadline
};
constexpr std::size_t kMisbehaviorCount =
    static_cast<std::size_t>(Misbehavior::kDeployTimeout) + 1;
const char* to_string(Misbehavior m);
// Score multiplier weight per class, in (0, 1].
double misbehavior_weight(Misbehavior m);

struct HostScoreboardConfig {
  // Hysteresis: enter quarantine when the score falls below the low-water
  // mark, leave only after rehabilitation lifts it above the high-water
  // mark. A single threshold would flap selection on every small change.
  double quarantine_enter = 0.35;
  double quarantine_exit = 0.65;
  // Decay-based rehabilitation: accumulated distrust (1 - score) halves
  // every half-life of quiet operation, so a quarantined host that stops
  // misbehaving eventually re-enters the candidate pool.
  SimDuration rehab_half_life = seconds(60);
  // Additional linear recovery per reported success (clean deploy/audit).
  double success_recovery = 0.02;
};

// Shared, simulation-time-aware reputation over untrusted hosts, keyed by
// an opaque host id (this repo uses the server's Ipv4Addr string). Scores
// live in [0,1]; unknown hosts start at 1.0 ("trust but verify").
class HostScoreboard {
 public:
  explicit HostScoreboard(HostScoreboardConfig cfg = {});

  double score(const std::string& host, SimTime now) const;
  void report(const std::string& host, Misbehavior what, SimTime now);
  void report_success(const std::string& host, SimTime now);

  // Hysteretic quarantine decision; updates the host's latched state.
  bool quarantined(const std::string& host, SimTime now);

  // Ops verb: force the latch in or out, overriding the hysteresis. Forcing
  // a host *in* pins its distrust at 1 (it must rehabilitate from the
  // bottom); forcing it *out* clears all distrust (a clean slate). Returns
  // true when the latch actually changed.
  bool override_quarantine(const std::string& host, bool quarantine,
                           SimTime now);

  // Chaos planted-bug hook (test-only): raises a host's distrust WITHOUT
  // counting a violation — exactly the "score dropped with no attributable
  // report" condition the reputation-monotonicity invariant must flag.
  void debug_add_distrust(const std::string& host, double amount, SimTime now);

  std::uint64_t violations() const;
  std::uint64_t violations(Misbehavior m) const {
    return violations_[static_cast<std::size_t>(m)].value();
  }
  std::uint64_t quarantine_enters() const { return enters_.value(); }
  std::uint64_t quarantine_exits() const { return exits_.value(); }

 private:
  struct Entry {
    double distrust = 0.0;  // 1 - score, before lazy decay
    SimTime updated = 0;
    bool quarantined = false;
  };
  // Applies rehabilitation decay since the last touch.
  double decayed_distrust(const Entry& e, SimTime now) const;
  Entry& touch(const std::string& host, SimTime now);
  // Hysteresis: latch below the entry mark, unlatch above the exit mark.
  // Run on every report as well as every query — a score can dip through
  // the quarantine window and decay back out between two queries.
  void update_latch(Entry& e, const std::string& host, double score);

  HostScoreboardConfig cfg_;
  std::map<std::string, Entry> entries_;
  // One per Misbehavior, indexed by class; instance label = class name.
  std::vector<telemetry::Tally> violations_;
  telemetry::Tally enters_{"audit.reputation.quarantine_enters"};
  telemetry::Tally exits_{"audit.reputation.quarantine_exits"};
};

// --- circuit breaker -------------------------------------------------------

enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };
const char* to_string(BreakerState s);

struct CircuitBreakerConfig {
  // Consecutive failures before the breaker opens. <= 0 disables tripping
  // entirely (allow() is always true).
  int failure_threshold = 3;
  // How long an open breaker rejects attempts before letting one probe
  // through (half-open).
  SimDuration open_for = seconds(10);
};

// Per-target failure breaker: after `failure_threshold` consecutive
// failures the target is not attempted again until `open_for` elapses;
// then a single half-open probe decides between closing and re-opening.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(CircuitBreakerConfig cfg = {}) : cfg_(cfg) {}

  // True when an attempt may proceed. An open breaker whose cool-down has
  // elapsed transitions to half-open and admits exactly this attempt.
  bool allow(SimTime now);
  void record_failure(SimTime now);
  void record_success();

  BreakerState state() const { return state_; }
  std::uint64_t transitions() const { return transitions_; }
  std::uint64_t rejected() const { return rejected_; }

 private:
  void set_state(BreakerState s);

  CircuitBreakerConfig cfg_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  SimTime open_until_ = 0;
  std::uint64_t transitions_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace pvn

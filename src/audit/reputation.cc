#include "audit/reputation.h"

#include <cmath>

#include "telemetry/span.h"

namespace pvn {

double ReputationSystem::score(const std::string& provider) const {
  const auto it = scores_.find(provider);
  return it == scores_.end() ? 1.0 : it->second;
}

void ReputationSystem::report_violation(const std::string& provider,
                                        double weight) {
  double& s = scores_.try_emplace(provider, 1.0).first->second;
  s *= (1.0 - weight);
  if (s < 0.0) s = 0.0;
}

void ReputationSystem::report_clean_audit(const std::string& provider,
                                          double recovery) {
  double& s = scores_.try_emplace(provider, 1.0).first->second;
  s += recovery;
  if (s > 1.0) s = 1.0;
}

std::string ReputationSystem::pick_provider(
    const std::vector<std::string>& candidates) const {
  std::string best;
  double best_score = -1.0;
  for (const std::string& c : candidates) {
    if (blacklisted(c)) continue;
    const double s = score(c);
    if (s > best_score) {
      best_score = s;
      best = c;
    }
  }
  return best;
}

// --- HostScoreboard --------------------------------------------------------

const char* to_string(Misbehavior m) {
  switch (m) {
    case Misbehavior::kBogusOffer: return "bogus-offer";
    case Misbehavior::kCorruptCheckpoint: return "corrupt-checkpoint";
    case Misbehavior::kReplayedCheckpoint: return "replayed-checkpoint";
    case Misbehavior::kNakFlood: return "nak-flood";
    case Misbehavior::kCapacityLie: return "capacity-lie";
    case Misbehavior::kAuditFailure: return "audit-failure";
    case Misbehavior::kDeployTimeout: return "deploy-timeout";
  }
  return "?";
}

double misbehavior_weight(Misbehavior m) {
  switch (m) {
    case Misbehavior::kBogusOffer: return 0.35;
    case Misbehavior::kCorruptCheckpoint: return 0.50;
    case Misbehavior::kReplayedCheckpoint: return 0.40;
    case Misbehavior::kNakFlood: return 0.25;
    case Misbehavior::kCapacityLie: return 0.35;
    case Misbehavior::kAuditFailure: return 0.50;
    case Misbehavior::kDeployTimeout: return 0.15;
  }
  return 0.25;
}

HostScoreboard::HostScoreboard(HostScoreboardConfig cfg) : cfg_(cfg) {
  violations_.reserve(kMisbehaviorCount);
  for (std::size_t i = 0; i < kMisbehaviorCount; ++i) {
    violations_.emplace_back("audit.reputation.violations",
                             to_string(static_cast<Misbehavior>(i)));
  }
}

std::uint64_t HostScoreboard::violations() const {
  std::uint64_t total = 0;
  for (const telemetry::Tally& t : violations_) total += t.value();
  return total;
}

double HostScoreboard::decayed_distrust(const Entry& e, SimTime now) const {
  if (e.distrust <= 0.0) return 0.0;
  const SimDuration dt = now - e.updated;
  if (dt <= 0 || cfg_.rehab_half_life <= 0) return e.distrust;
  const double halves =
      static_cast<double>(dt) / static_cast<double>(cfg_.rehab_half_life);
  return e.distrust * std::pow(0.5, halves);
}

HostScoreboard::Entry& HostScoreboard::touch(const std::string& host,
                                             SimTime now) {
  Entry& e = entries_.try_emplace(host).first->second;
  e.distrust = decayed_distrust(e, now);
  e.updated = now;
  return e;
}

double HostScoreboard::score(const std::string& host, SimTime now) const {
  const auto it = entries_.find(host);
  if (it == entries_.end()) return 1.0;
  return 1.0 - decayed_distrust(it->second, now);
}

void HostScoreboard::report(const std::string& host, Misbehavior what,
                            SimTime now) {
  Entry& e = touch(host, now);
  // Multiplicative accrual on the trust side: repeated violations approach
  // zero trust asymptotically, and a severe class dominates a mild one.
  const double w = misbehavior_weight(what);
  e.distrust = 1.0 - (1.0 - e.distrust) * (1.0 - w);
  violations_[static_cast<std::size_t>(what)].inc();
  telemetry::SpanRecorder::global().instant(
      std::string("violation_") + to_string(what), "reputation", host);
  // Latch quarantine at report time, not only when someone asks: between a
  // report and the next query the score decays upward, so a caller polling
  // on its own (slow) discovery cadence could sail past the entire window
  // in which the score sat below the entry mark and never see the host
  // quarantined at all.
  update_latch(e, host, 1.0 - e.distrust);
}

void HostScoreboard::debug_add_distrust(const std::string& host, double amount,
                                        SimTime now) {
  Entry& e = touch(host, now);
  e.distrust += amount;
  if (e.distrust > 1.0) e.distrust = 1.0;
}

void HostScoreboard::report_success(const std::string& host, SimTime now) {
  Entry& e = touch(host, now);
  e.distrust -= cfg_.success_recovery;
  if (e.distrust < 0.0) e.distrust = 0.0;
}

bool HostScoreboard::quarantined(const std::string& host, SimTime now) {
  const auto it = entries_.find(host);
  if (it == entries_.end()) return false;  // unknown host: trusted
  Entry& e = it->second;
  update_latch(e, host, 1.0 - decayed_distrust(e, now));
  return e.quarantined;
}

bool HostScoreboard::override_quarantine(const std::string& host,
                                         bool quarantine, SimTime now) {
  Entry& e = touch(host, now);
  // Pin the distrust consistent with the forced latch so the next ordinary
  // query does not immediately undo the override through the hysteresis.
  e.distrust = quarantine ? 1.0 : 0.0;
  if (e.quarantined == quarantine) return false;  // idempotent
  e.quarantined = quarantine;
  if (quarantine) {
    enters_.inc();
    telemetry::SpanRecorder::global().instant("quarantine_force_enter",
                                              "reputation", host);
  } else {
    exits_.inc();
    telemetry::SpanRecorder::global().instant("quarantine_force_exit",
                                              "reputation", host);
  }
  return true;
}

void HostScoreboard::update_latch(Entry& e, const std::string& host,
                                  double score) {
  if (!e.quarantined && score < cfg_.quarantine_enter) {
    e.quarantined = true;
    enters_.inc();
    telemetry::SpanRecorder::global().instant("quarantine_enter", "reputation",
                                              host);
  } else if (e.quarantined && score > cfg_.quarantine_exit) {
    e.quarantined = false;
    exits_.inc();
    telemetry::SpanRecorder::global().instant("quarantine_exit", "reputation",
                                              host);
  }
}

// --- CircuitBreaker --------------------------------------------------------

const char* to_string(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

void CircuitBreaker::set_state(BreakerState s) {
  if (state_ == s) return;
  state_ = s;
  ++transitions_;
}

bool CircuitBreaker::allow(SimTime now) {
  if (cfg_.failure_threshold <= 0) return true;
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (now >= open_until_) {
        set_state(BreakerState::kHalfOpen);
        return true;  // the single probe
      }
      ++rejected_;
      return false;
    case BreakerState::kHalfOpen:
      // A probe is already in flight; hold further attempts.
      ++rejected_;
      return false;
  }
  return true;
}

void CircuitBreaker::record_failure(SimTime now) {
  if (cfg_.failure_threshold <= 0) return;
  if (state_ == BreakerState::kHalfOpen) {
    // The probe failed: straight back to open.
    open_until_ = now + cfg_.open_for;
    set_state(BreakerState::kOpen);
    return;
  }
  if (++consecutive_failures_ >= cfg_.failure_threshold &&
      state_ == BreakerState::kClosed) {
    open_until_ = now + cfg_.open_for;
    set_state(BreakerState::kOpen);
  }
}

void CircuitBreaker::record_success() {
  consecutive_failures_ = 0;
  if (state_ != BreakerState::kClosed) set_state(BreakerState::kClosed);
}

}  // namespace pvn

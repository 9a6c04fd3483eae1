#include "pvn/client.h"

#include <algorithm>
#include <cmath>

#include "tunnel/vpn.h"

namespace pvn {
namespace {

// The first deploy retransmission timeout; later ones grow by
// RetryPolicy::backoff.
constexpr SimDuration kDeployRto = milliseconds(400);
// Sessions renew every lease / kRenewDivisor.
constexpr int kRenewDivisor = 3;
// Renewal periods are jittered uniformly in [1-j, 1+j].
constexpr double kRenewJitter = 0.1;
// Unanswered renewals before failover.
constexpr int kRenewMissLimit = 2;
// Growth of the rediscovery delay per fallback attempt.
constexpr double kFallbackBackoff = 1.5;
// Consecutive kBusy NAKs from one server before it is reported to the
// scoreboard as a NAK flood.
constexpr int kNakFloodStreak = 3;

}  // namespace

const char* to_string(SessionState s) {
  switch (s) {
    case SessionState::kIdle: return "idle";
    case SessionState::kDiscovering: return "discovering";
    case SessionState::kDeploying: return "deploying";
    case SessionState::kActive: return "active";
    case SessionState::kFallback: return "fallback";
  }
  return "?";
}

PvnClient::PvnClient(Host& host, Pvnc pvnc, ClientConfig cfg)
    : host_(&host),
      pvnc_(std::move(pvnc)),
      cfg_(std::move(cfg)),
      rng_(host.network().rng().fork()) {
  auto& reg = telemetry::MetricsRegistry::global();
  m_discovery_rounds_ = &reg.counter("pvn.client.discovery_rounds");
  m_offers_received_ = &reg.counter("pvn.client.offers_received");
  m_deploys_ok_ = &reg.counter("pvn.client.deploys_ok");
  m_deploys_failed_ = &reg.counter("pvn.client.deploys_failed");
  m_offer_expiries_ = &reg.counter("pvn.client.offer_expiries");
  m_deploy_latency_ = &reg.histogram("pvn.client.deploy_latency_ns",
                                     telemetry::latency_bounds_ns());
  m_blackout_ = &reg.histogram("pvn.client.blackout_ns",
                               telemetry::latency_bounds_ns());
  telemetry::SpanRecorder::global().set_clock(&host_->sim());
  host_->bind_udp(local_port_, [this](Ipv4Addr, Port, Port,
                                      const Bytes& payload) {
    on_packet(payload);
  });
}

PvnClient::~PvnClient() {
  cancel_timer(collect_timer_);
  cancel_timer(rto_timer_);
  cancel_timer(deadline_timer_);
  cancel_timer(renew_timer_);
  cancel_timer(fallback_timer_);
  cancel_timer(drain_timer_);
  host_->unbind_udp(local_port_);
}

void PvnClient::cancel_timer(EventId& id) {
  if (id != kInvalidEventId) {
    host_->sim().cancel(id);
    id = kInvalidEventId;
  }
}

SimDuration PvnClient::jittered(SimDuration base, int attempt) const {
  double d = static_cast<double>(base);
  for (int i = 1; i < attempt; ++i) d *= cfg_.retry.backoff;
  const double j = cfg_.retry.jitter;
  if (j > 0.0) d *= rng_.uniform(1.0 - j, 1.0 + j);
  return static_cast<SimDuration>(d);
}

SimDuration PvnClient::renew_delay() const {
  double d = static_cast<double>(lease_) / kRenewDivisor;
  // Desynchronize: without this a fleet of clients deployed in the same
  // instant renews in lockstep forever, hammering the server with a
  // synchronized burst each period.
  d *= rng_.uniform(1.0 - kRenewJitter, 1.0 + kRenewJitter);
  return static_cast<SimDuration>(d);
}

void PvnClient::discover_and_deploy(Ipv4Addr server, DoneCallback done) {
  in_progress_ = true;
  awaiting_ack_ = false;
  started_ = host_->sim().now();
  server_ = server;
  discovery_round_ = 0;
  deploy_attempt_ = 0;
  outcome_ = DeployOutcome{};
  done_ = std::move(done);
  // Every cycle roots a fresh causal trace; a migration's new deploy keeps
  // its own trace but the old session's teardown is stitched to it below.
  auto& rec = telemetry::SpanRecorder::global();
  cycle_span_ = rec.start("deploy_cycle", "pvn", pvnc_.name, rec.new_trace(),
                          host_->name());
  start_discovery_round();
}

void PvnClient::start_discovery_round() {
  // While in fallback the session stays in kFallback through rediscovery
  // attempts: the tunnel is still carrying traffic until a deploy lands.
  // A migration likewise stays kActive: the old session is still serving.
  if (session_ && !in_fallback_ && !migrating_) {
    set_state(SessionState::kDiscovering);
  }
  ++discovery_round_;
  m_discovery_rounds_->inc();
  phase_span_ = telemetry::SpanRecorder::global().start(
      "discovery", "pvn", pvnc_.name, cycle_span_.context(), host_->name());
  outcome_.discovery_rounds = discovery_round_;
  offers_.clear();
  outcome_.offers_received = 0;

  DiscoveryMessage dm;
  dm.seq = ++seq_;  // fresh seq per round: stale offers are ignored
  dm.device_id = pvnc_.name;
  dm.standards = kPvnStandards;
  dm.modules = pvnc_.module_names();
  dm.est_memory_bytes = pvnc_.est_memory_bytes();
  const Bytes dm_bytes =
      wrap(PvnMsgType::kDiscovery, dm.encode(), phase_span_.context());
  host_->send_udp(server_, local_port_, kPvnPort, dm_bytes, 0,
                  phase_span_.context().trace_id);
  ++outcome_.messages_sent;
  // Competing networks join the same auction round.
  for (const Ipv4Addr& extra : cfg_.extra_servers) {
    if (extra == server_) continue;
    host_->send_udp(extra, local_port_, kPvnPort, dm_bytes, 0,
                    phase_span_.context().trace_id);
    ++outcome_.messages_sent;
  }

  // Round 1 waits exactly offer_wait (keeps the happy-path deployment
  // latency deterministic); later rounds back off with jitter.
  const SimDuration wait = discovery_round_ == 1
                               ? cfg_.offer_wait
                               : jittered(cfg_.offer_wait, discovery_round_);
  collect_timer_ = host_->sim().schedule_after(wait, SimCategory::kPvnControl, [this] {
    collect_timer_ = kInvalidEventId;
    on_offers_collected();
  });
}

void PvnClient::teardown(Ipv4Addr server) {
  Teardown td;
  td.device_id = pvnc_.name;
  // Stitched to the current cycle's trace: a migration's switchover
  // teardown is causally part of the new deployment's story.
  host_->send_udp(server, local_port_, kPvnPort,
                  wrap(PvnMsgType::kTeardown, td.encode(),
                       cycle_span_.context()),
                  0, cycle_span_.context().trace_id);
}

void PvnClient::on_packet(const Bytes& payload) {
  const auto frame = unwrap_frame(payload);
  if (!frame) return;
  if (frame->type == PvnMsgType::kLeaseAck) {
    if (const auto ack = LeaseAck::decode(frame->body)) on_lease_ack(*ack);
    return;
  }
  if (!in_progress_) return;
  ++outcome_.messages_received;

  switch (frame->type) {
    case PvnMsgType::kOffer: {
      const auto offer = Offer::decode(frame->body);
      if (offer && offer->seq == seq_ && !awaiting_ack_ &&
          accept_offer(*offer)) {
        offers_.push_back(*offer);
        ++outcome_.offers_received;
        m_offers_received_->inc();
      }
      break;
    }
    case PvnMsgType::kDeployAck: {
      const auto ack = DeployAck::decode(frame->body);
      if (ack && ack->seq == seq_ && awaiting_ack_) {
        outcome_.ok = true;
        outcome_.chain_id = ack->chain_id;
        outcome_.lease_duration = ack->lease_duration;
        finish(outcome_);
      }
      break;
    }
    case PvnMsgType::kDeployNack: {
      const auto nack = DeployNack::decode(frame->body);
      if (nack && nack->seq == seq_ && awaiting_ack_) {
        outcome_.ok = false;
        outcome_.failure = "nack: " + nack->reason;
        outcome_.nack_code = nack->code;
        outcome_.retry_after = nack->retry_after;
        finish(outcome_);
      }
      break;
    }
    default:
      break;
  }
}

// Structural decode already rejected malformed offers; this drops the
// well-formed-but-adversarial ones and charges the sender's reputation.
bool PvnClient::accept_offer(const Offer& offer) {
  if (!cfg_.vet_offers) return true;
  const OfferDefect defect =
      vet_offer(offer, pvnc_.est_memory_bytes(), OfferBounds{},
                host_->sim().now());
  if (defect == OfferDefect::kNone) return true;
  ++offers_rejected_;
  ++outcome_.offers_vetted_out;
  telemetry::MetricsRegistry::global()
      .counter("pvn.client.offers_rejected", to_string(defect))
      .inc();
  telemetry::SpanRecorder::global().instant(
      std::string("offer_rejected_") + to_string(defect), "pvn", pvnc_.name);
  if (cfg_.scoreboard != nullptr) {
    cfg_.scoreboard->report(offer.deployment_server.to_string(),
                            Misbehavior::kBogusOffer, host_->sim().now());
  }
  return false;
}

void PvnClient::filter_distrusted_offers() {
  if (cfg_.scoreboard == nullptr && !cfg_.use_breaker) return;
  const SimTime now = host_->sim().now();
  std::erase_if(offers_, [this, now](const Offer& offer) {
    const std::string server = offer.deployment_server.to_string();
    if (cfg_.scoreboard != nullptr &&
        cfg_.scoreboard->quarantined(server, now)) {
      ++offers_quarantined_;
      telemetry::SpanRecorder::global().instant("offer_quarantined", "pvn",
                                                pvnc_.name);
      return true;
    }
    if (cfg_.use_breaker) {
      CircuitBreaker& b = breaker_for(server);
      const BreakerState before = b.state();
      const bool allowed = b.allow(now);
      note_breaker_transition(server, before, b);
      if (!allowed) {
        ++offers_quarantined_;
        telemetry::SpanRecorder::global().instant("offer_breaker_open", "pvn",
                                                  pvnc_.name);
        return true;
      }
    }
    return false;
  });
}

CircuitBreaker& PvnClient::breaker_for(const std::string& server) {
  const auto it = breakers_.find(server);
  if (it != breakers_.end()) return it->second;
  return breakers_.try_emplace(server, CircuitBreaker(cfg_.breaker))
      .first->second;
}

void PvnClient::note_breaker_transition(const std::string& server,
                                        BreakerState before,
                                        const CircuitBreaker& b) {
  if (b.state() == before) return;
  telemetry::MetricsRegistry::global()
      .counter("pvn.client.breaker_transitions", to_string(b.state()))
      .inc();
  telemetry::SpanRecorder::global().instant(
      std::string("breaker_") + to_string(b.state()), "pvn", server);
}

void PvnClient::on_offers_collected() {
  if (!in_progress_ || awaiting_ack_) return;
  phase_span_.finish();  // discovery phase ends when offers are evaluated
  filter_distrusted_offers();
  if (offers_.empty() &&
      discovery_round_ < cfg_.retry.max_discovery_rounds) {
    start_discovery_round();  // retransmit: the discovery may have been lost
    return;
  }
  const std::vector<std::string> requested = pvnc_.module_names();
  const int best = pick_best_offer(offers_, requested, cfg_.constraints,
                                   host_->sim().now());
  if (best < 0) {
    // Offers that were heard but vetted out still mean the network spoke
    // PVN — it just had nothing acceptable to say.
    fail(offers_.empty() && outcome_.offers_vetted_out == 0
             ? "no offers (network lacks PVN support)"
             : "no acceptable offer");
    return;
  }
  chosen_offer_ = offers_[static_cast<std::size_t>(best)];
  telemetry::Span negotiate_span = telemetry::SpanRecorder::global().start(
      "negotiate", "pvn", pvnc_.name, cycle_span_.context(), host_->name());
  const NegotiationResult negotiated = evaluate_offer(
      chosen_offer_, requested, cfg_.constraints, host_->sim().now());

  DeployRequest req;
  req.seq = seq_;
  req.device_id = pvnc_.name;
  if (cfg_.pvnc_uri.empty()) {
    req.pvnc = negotiated.action == NegotiationAction::kCounterSubset
                   ? restrict_to_modules(pvnc_, negotiated.accept_modules)
                   : pvnc_;
  } else {
    req.pvnc_uri = cfg_.pvnc_uri;  // the provider fetches the object itself
  }
  req.payment = chosen_offer_.total_price;
  // Tell the server which modules the user's policy treats as hard
  // constraints: losing one of those later cannot be degraded around.
  req.required_modules = cfg_.constraints.required_modules;
  if (migrating_) {
    // Ask the new server to pull our session state from the old one
    // before acking (live migration handoff).
    req.handoff_server = migrate_from_server_;
    req.handoff_chain_id = migrate_from_chain_;
  }
  outcome_.paid = chosen_offer_.total_price;
  outcome_.utility = negotiated.utility;
  outcome_.deployed_modules = req.pvnc.module_names();

  negotiate_span.finish();
  deploy_attempt_ = 0;
  awaiting_ack_ = true;
  phase_span_ = telemetry::SpanRecorder::global().start(
      "deploy", "pvn", pvnc_.name, cycle_span_.context(), host_->name());
  // The request frame carries the deploy phase's context, so the server's
  // spans stitch under it; retransmits reuse these exact bytes.
  deploy_bytes_ =
      wrap(PvnMsgType::kDeployRequest, req.encode(), phase_span_.context());
  if (session_ && !in_fallback_ && !migrating_) {
    set_state(SessionState::kDeploying);
  }

  // Overall deadline, independent of per-attempt retransmission timers.
  deadline_timer_ = host_->sim().schedule_after(cfg_.deploy_timeout, SimCategory::kPvnControl, [this] {
    deadline_timer_ = kInvalidEventId;
    if (!in_progress_) return;
    fail("deploy timeout");
  });
  send_deploy_request();
}

void PvnClient::send_deploy_request() {
  // An offer can lapse between collection and a retransmission; deploying
  // against it would only earn a nack, so restart discovery instead.
  if (chosen_offer_.expires_at != 0 &&
      host_->sim().now() > chosen_offer_.expires_at) {
    m_offer_expiries_->inc();
    telemetry::SpanRecorder::global().instant("offer_expired", "pvn",
                                              pvnc_.name);
    awaiting_ack_ = false;
    cancel_timer(deadline_timer_);
    if (discovery_round_ < cfg_.retry.max_discovery_rounds) {
      start_discovery_round();
    } else {
      fail("offer expired before deployment");
    }
    return;
  }
  ++deploy_attempt_;
  outcome_.deploy_attempts = deploy_attempt_;
  if (deploy_attempt_ > 1) {
    retransmissions_.inc();
    telemetry::SpanRecorder::global().instant(
        "retransmit", "pvn", pvnc_.name, phase_span_.context(), host_->name());
  }
  host_->send_udp(chosen_offer_.deployment_server, local_port_, kPvnPort,
                  deploy_bytes_, 0, phase_span_.context().trace_id);
  ++outcome_.messages_sent;

  if (deploy_attempt_ >= cfg_.retry.max_deploy_attempts) return;  // deadline decides
  rto_timer_ = host_->sim().schedule_after(
      jittered(kDeployRto, deploy_attempt_),
      SimCategory::kPvnControl, [this] {
        rto_timer_ = kInvalidEventId;
        if (!in_progress_ || !awaiting_ack_) return;
        send_deploy_request();
      });
}

void PvnClient::fail(const std::string& reason) {
  outcome_.ok = false;
  outcome_.failure = reason;
  finish(outcome_);
}

void PvnClient::account_deploy_result(const DeployOutcome& outcome) {
  const std::string server = chosen_offer_.deployment_server.to_string();
  const SimTime now = host_->sim().now();
  if (outcome.ok) {
    busy_streaks_.erase(server);
    pending_retry_after_ = 0;
    if (cfg_.scoreboard != nullptr) {
      cfg_.scoreboard->report_success(server, now);
    }
    if (cfg_.use_breaker) {
      CircuitBreaker& b = breaker_for(server);
      const BreakerState before = b.state();
      b.record_success();
      note_breaker_transition(server, before, b);
    }
    return;
  }
  if (outcome.nack_code == NackCode::kBusy) {
    ++busy_nacks_;
    pending_retry_after_ = outcome.retry_after;
    // A busy server is behaving — unless it sheds everything forever. A
    // run of kBusy with no success in between is reported as a NAK flood.
    int& streak = busy_streaks_[server];
    if (++streak >= kNakFloodStreak && cfg_.scoreboard != nullptr) {
      streak = 0;
      cfg_.scoreboard->report(server, Misbehavior::kNakFlood, now);
    }
  } else {
    busy_streaks_.erase(server);
  }
  if (outcome.failure == "deploy timeout" && cfg_.scoreboard != nullptr) {
    cfg_.scoreboard->report(server, Misbehavior::kDeployTimeout, now);
  }
  if (cfg_.use_breaker) {
    CircuitBreaker& b = breaker_for(server);
    const BreakerState before = b.state();
    b.record_failure(now);
    note_breaker_transition(server, before, b);
  }
}

void PvnClient::finish(DeployOutcome outcome) {
  cancel_timer(collect_timer_);
  cancel_timer(rto_timer_);
  cancel_timer(deadline_timer_);
  in_progress_ = false;
  awaiting_ack_ = false;
  (outcome.ok ? m_deploys_ok_ : m_deploys_failed_)->inc();
  // Only deploy-phase outcomes score the server: a failed discovery round
  // never chose one.
  if (outcome.deploy_attempts > 0) account_deploy_result(outcome);
  phase_span_.finish();
  cycle_span_.finish();
  outcome.elapsed = host_->sim().now() - started_;
  if (outcome.ok) {
    m_deploy_latency_->observe(static_cast<std::uint64_t>(outcome.elapsed));
  }
  if (done_) {
    // Move out first: the callback may start a new cycle (session retry).
    DoneCallback cb = std::move(done_);
    done_ = nullptr;
    cb(outcome);
  }
  if (session_) on_session_outcome(outcome);
}

// --- session mode ----------------------------------------------------------

void PvnClient::set_state(SessionState s) {
  if (state_ == s) return;
  state_ = s;
  if (on_state_) on_state_(s);
}

void PvnClient::start_session(Ipv4Addr server, DoneCallback done) {
  stop_session();
  session_ = true;
  server_ = server;
  session_done_ = std::move(done);
  session_cycle();
}

void PvnClient::stop_session() {
  session_ = false;
  lease_span_.finish();
  cancel_timer(renew_timer_);
  cancel_timer(fallback_timer_);
  cancel_timer(drain_timer_);
  renew_misses_ = 0;
  fallback_delay_ = 0;
  in_fallback_ = false;
  migrating_ = false;
  if (fallback_ != nullptr && fallback_->active()) fallback_->disable();
  set_state(SessionState::kIdle);
}

void PvnClient::session_cycle() {
  if (!session_ || in_progress_) return;
  discover_and_deploy(server_, nullptr);
}

void PvnClient::on_session_outcome(const DeployOutcome& outcome) {
  if (!session_) return;
  if (session_done_) session_done_(outcome);
  if (migrating_ && !outcome.ok) {
    // Migration failed: the old deployment is still live and its lease is
    // still being renewed — just stay where we are, no fallback.
    migrating_ = false;
    server_ = migrate_from_server_;
    telemetry::SpanRecorder::global().instant("migration_failed", "pvn",
                                              pvnc_.name);
    return;
  }
  if (outcome.ok) {
    enter_active(outcome);
  } else {
    enter_fallback();
  }
}

void PvnClient::enter_active(const DeployOutcome& outcome) {
  if (migrating_) {
    // The new deployment is live; switch over. The old chain keeps serving
    // in-flight packets for the drain window, then is torn down.
    migrating_ = false;
    lease_span_.finish();
    const Ipv4Addr old_server = migrate_from_server_;
    cancel_timer(drain_timer_);
    drain_timer_ = host_->sim().schedule_after(
        migrate_drain_, SimCategory::kPvnControl, [this, old_server] {
          drain_timer_ = kInvalidEventId;
          teardown(old_server);
          migrations_.inc();
          telemetry::SpanRecorder::global().instant(
              "migration_switchover", "pvn", pvnc_.name,
              cycle_span_.context(), host_->name());
        });
  }
  chain_id_ = outcome.chain_id;
  lease_ = outcome.lease_duration;
  // The lease lives wherever the winning offer came from — with competing
  // networks in the auction (extra_servers) that is not necessarily the
  // discovery target, and renewing against the wrong host would silently
  // let the real lease lapse.
  active_server_ = chosen_offer_.deployment_server;
  renew_misses_ = 0;
  fallback_delay_ = 0;
  degraded_modules_.clear();
  cancel_timer(fallback_timer_);
  cancel_timer(renew_timer_);  // a migrated-from lease may still have one
  if (in_fallback_) {
    in_fallback_ = false;
    m_blackout_->observe(
        static_cast<std::uint64_t>(host_->sim().now() - blackout_started_));
    recoveries_.inc();
    telemetry::SpanRecorder::global().instant("recovery", "pvn", pvnc_.name,
                                              cycle_span_.context(),
                                              host_->name());
  }
  if (fallback_ != nullptr && fallback_->active()) fallback_->disable();
  set_state(SessionState::kActive);
  lease_span_ = telemetry::SpanRecorder::global().start(
      "lease", "pvn", pvnc_.name, cycle_span_.context(), host_->name());
  if (lease_ > 0) {
    renew_timer_ = host_->sim().schedule_after(
        renew_delay(), SimCategory::kPvnControl, [this] {
          renew_timer_ = kInvalidEventId;
          send_renew();
        });
  }
}

void PvnClient::migrate(Ipv4Addr new_server, SimDuration drain,
                        DoneCallback done) {
  if (!session_ || state_ != SessionState::kActive || in_progress_ ||
      migrating_) {
    if (done) {
      DeployOutcome outcome;
      outcome.failure = "no active session to migrate";
      done(outcome);
    }
    return;
  }
  migrating_ = true;
  migrate_from_server_ = active_server_;
  migrate_from_chain_ = chain_id_;
  migrate_drain_ = drain;
  telemetry::SpanRecorder::global().instant("migration_begin", "pvn",
                                            pvnc_.name, lease_span_.context(),
                                            host_->name());
  discover_and_deploy(new_server, std::move(done));
}

void PvnClient::enter_fallback() {
  cancel_timer(renew_timer_);
  chain_id_.clear();
  lease_span_.finish();
  if (!in_fallback_) {
    in_fallback_ = true;
    blackout_started_ = host_->sim().now();
    failovers_.inc();
    telemetry::SpanRecorder::global().instant("failover", "pvn", pvnc_.name,
                                              cycle_span_.context(),
                                              host_->name());
    if (fallback_ != nullptr) fallback_->enable();
    set_state(SessionState::kFallback);
    fallback_delay_ = cfg_.session.fallback_retry;
  } else {
    const auto scaled = static_cast<SimDuration>(
        static_cast<double>(fallback_delay_) * kFallbackBackoff);
    fallback_delay_ = std::min(scaled, cfg_.session.fallback_retry_max);
  }
  SimDuration delay = fallback_delay_;
  const double j = cfg_.retry.jitter;
  if (j > 0.0) {
    delay = static_cast<SimDuration>(static_cast<double>(delay) *
                                     rng_.uniform(1.0 - j, 1.0 + j));
  }
  // Backpressure: a shedding server told us when to come back; retrying
  // sooner would only earn another kBusy.
  if (pending_retry_after_ > delay) delay = pending_retry_after_;
  pending_retry_after_ = 0;
  fallback_timer_ = host_->sim().schedule_after(delay, SimCategory::kPvnControl, [this] {
    fallback_timer_ = kInvalidEventId;
    session_cycle();
  });
}

void PvnClient::send_renew() {
  if (!session_ || state_ != SessionState::kActive) return;
  if (renew_misses_ >= kRenewMissLimit) {
    // The server has stopped answering: treat the PVN as lost. A host that
    // acked the deployment but then ignores the lease it granted (blackhole)
    // broke its word — charge it as an audit failure so a shared scoreboard
    // steers the fleet's next discovery round elsewhere.
    if (cfg_.scoreboard != nullptr) {
      cfg_.scoreboard->report(active_server_.to_string(),
                              Misbehavior::kAuditFailure, host_->sim().now());
    }
    enter_fallback();
    return;
  }
  LeaseRenew renew;
  renew.seq = ++renew_seq_;
  renew.device_id = pvnc_.name;
  renew.chain_id = chain_id_;
  // Renew against the server holding the lease: during a migration
  // `server_` already points at the new network.
  host_->send_udp(active_server_, local_port_, kPvnPort,
                  wrap(PvnMsgType::kLeaseRenew, renew.encode(),
                       lease_span_.context()),
                  0, lease_span_.context().trace_id);
  renews_sent_.inc();
  ++renew_misses_;  // cleared when the ack arrives
  renew_timer_ = host_->sim().schedule_after(
      renew_delay(), SimCategory::kPvnControl, [this] {
        renew_timer_ = kInvalidEventId;
        send_renew();
      });
}

void PvnClient::on_lease_ack(const LeaseAck& ack) {
  if (!session_ || state_ != SessionState::kActive) return;
  if (ack.seq != renew_seq_) return;  // stale
  if (!ack.ok) {
    // Lease refused (chain lost, lease expired server-side, ...).
    enter_fallback();
    return;
  }
  renew_misses_ = 0;
  renews_acked_.inc();
  if (ack.lease_duration > 0) lease_ = ack.lease_duration;
  degraded_modules_ = ack.degraded_modules;
}

}  // namespace pvn

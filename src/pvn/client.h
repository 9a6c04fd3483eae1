// The device-side PVN agent (paper §3.1): discovers PVN support, collects
// offers, negotiates per the user's constraints, and deploys the PVNC.
//
// Control-plane resilience (§3.3 "Coping with unavailability"):
//   - Discovery is retried with exponential backoff when a round yields no
//     offers (lossy access links); each round uses a fresh sequence number.
//   - The deployment request is retransmitted with backoff + jitter until
//     acked, nacked, attempts are exhausted, or the overall deploy_timeout
//     deadline passes. Retransmissions reuse the sequence number so the
//     server can deduplicate.
//   - In session mode (start_session) the client renews its deployment
//     lease periodically; when the lease is lost — renewals unanswered or
//     refused — it fails over to a device VPN tunnel (tunnel/vpn.h
//     DeviceTunnel) and keeps rediscovering until the PVN comes back.
//
// Untrusted-host defenses (robustness):
//   - Every collected offer is vetted against sanity bounds (vet_offer);
//     bogus offers are dropped before negotiation and reported against the
//     sender on the shared HostScoreboard (when configured).
//   - Offers from quarantined hosts are excluded from selection, so a host
//     that misbehaved recently cannot win the auction again until its
//     reputation rehabilitates.
//   - A per-server circuit breaker (opt-in) stops hammering a host that
//     keeps failing deploys; kBusy NAKs honor the server's retry-after hint
//     instead of retrying on the client's own schedule.
#pragma once

#include <functional>
#include <map>

#include "audit/reputation.h"
#include "proto/host.h"
#include "pvn/negotiation.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "util/rng.h"

namespace pvn {

class DeviceTunnel;

struct DeployOutcome {
  bool ok = false;
  std::string chain_id;
  std::string failure;
  double paid = 0.0;
  double utility = 0.0;
  // Protocol telemetry (experiment E8).
  int messages_sent = 0;
  int messages_received = 0;
  int offers_received = 0;
  SimDuration elapsed = 0;
  std::vector<std::string> deployed_modules;
  // Resilience telemetry (experiment E16).
  int discovery_rounds = 0;    // discovery messages sent
  int deploy_attempts = 0;     // deploy request transmissions
  SimDuration lease_duration = 0;  // 0 = server granted no lease
  // Robustness telemetry: the typed refusal when the failure was a NACK,
  // the server's retry-after hint (kBusy load shedding), and how many
  // collected offers were dropped by sanity vetting this cycle.
  NackCode nack_code = NackCode::kUnspecified;
  SimDuration retry_after = 0;
  int offers_vetted_out = 0;
};

// Retransmission parameters. Deploy retransmissions start 400 ms apart;
// delays grow by `backoff` per attempt and are jittered uniformly in
// [1-jitter, 1+jitter] to avoid lockstep retries.
struct RetryPolicy {
  int max_discovery_rounds = 3;
  int max_deploy_attempts = 3;
  double backoff = 2.0;
  double jitter = 0.2;
};

// Session-mode (lease + failover) parameters. A session renews its lease
// every third of it, jittered by ±10%, and fails over after two unanswered
// renewals; rediscovery delays grow 1.5x per attempt up to the maximum.
struct SessionConfig {
  SimDuration fallback_retry = seconds(5);   // first rediscovery delay
  SimDuration fallback_retry_max = seconds(40);
};

struct ClientConfig {
  SimDuration offer_wait = milliseconds(250);  // collect offers this long
  SimDuration deploy_timeout = seconds(5);     // overall deploy deadline
  Constraints constraints;
  // When set, the deployment request carries this cloud-storage URI
  // ("pvnc://<ip>/<path>") instead of the inline PVNC object (§3.1); the
  // provider fetches and deploys the subset its policy allows.
  std::string pvnc_uri;
  RetryPolicy retry;
  SessionConfig session;

  // --- untrusted-host defenses ----------------------------------------
  // Every collected offer must pass OfferBounds' sanity bounds before
  // negotiation; honest servers in this repo stay well inside them.
  bool vet_offers = true;
  // Shared reputation over deployment servers (keyed by the server address
  // string). Optional: when set, bogus offers and misbehavior are reported
  // here, and offers from quarantined hosts are excluded from selection.
  // Must outlive the client.
  HostScoreboard* scoreboard = nullptr;
  // Per-server circuit breaker on deploy failures (NAKs, timeouts). Opt-in
  // via use_breaker so the default client behaves exactly as before.
  bool use_breaker = false;
  CircuitBreakerConfig breaker;
  // Additional deployment servers to probe each discovery round (competing
  // access networks); their offers join the same auction.
  std::vector<Ipv4Addr> extra_servers;
};

enum class SessionState { kIdle, kDiscovering, kDeploying, kActive, kFallback };
const char* to_string(SessionState s);

class PvnClient {
 public:
  using DoneCallback = std::function<void(const DeployOutcome&)>;
  using StateCallback = std::function<void(SessionState)>;

  PvnClient(Host& host, Pvnc pvnc, ClientConfig cfg = {});
  ~PvnClient();

  PvnClient(const PvnClient&) = delete;
  PvnClient& operator=(const PvnClient&) = delete;

  // Runs discovery -> negotiation -> deployment against `server` (a known
  // deployment server address from DHCP, or kPvnAnycast for flooding).
  void discover_and_deploy(Ipv4Addr server, DoneCallback done);

  // Sends a teardown for this device's deployment.
  void teardown(Ipv4Addr server);

  // --- resilient session mode -------------------------------------------
  // Deploys and then keeps the deployment alive: renews the lease, fails
  // over to `set_fallback`'s tunnel when the PVN is lost, and recovers
  // automatically. `done` (optional) fires after every deploy attempt
  // cycle, successful or not.
  void start_session(Ipv4Addr server, DoneCallback done = nullptr);
  void stop_session();

  // Live migration (requires an active session): deploys against
  // `new_server` while the old session keeps serving traffic, asking the
  // new server to pull the old chain's state (kStateRequest handoff). On
  // success the client drains in-flight packets for `drain` before tearing
  // the old deployment down; on failure it simply stays on the old session
  // (no fallback). `done` fires with the new deployment's outcome.
  void migrate(Ipv4Addr new_server, SimDuration drain,
               DoneCallback done = nullptr);
  bool migrating() const { return migrating_; }

  // Tunnel enabled while the session is in fallback. Must outlive the
  // session. Optional: without it the client still rediscovers, it just
  // has no data-plane escape hatch in the meantime.
  void set_fallback(DeviceTunnel* tunnel) { fallback_ = tunnel; }
  void set_state_callback(StateCallback cb) { on_state_ = std::move(cb); }

  SessionState state() const { return state_; }
  // The deployment server holding the current lease (0.0.0.0 when idle) —
  // lets auditors join client sessions against server deployment tables.
  Ipv4Addr active_server() const { return active_server_; }
  const std::string& chain_id() const { return chain_id_; }
  const std::vector<std::string>& degraded_modules() const {
    return degraded_modules_;
  }

  const Pvnc& pvnc() const { return pvnc_; }

  // Resilience telemetry.
  std::uint64_t retransmissions() const { return retransmissions_.value(); }
  std::uint64_t failovers() const { return failovers_.value(); }
  std::uint64_t recoveries() const { return recoveries_.value(); }
  std::uint64_t renews_sent() const { return renews_sent_.value(); }
  std::uint64_t renews_acked() const { return renews_acked_.value(); }
  std::uint64_t migrations() const { return migrations_.value(); }
  // Robustness telemetry.
  std::uint64_t offers_rejected() const { return offers_rejected_; }
  std::uint64_t offers_quarantined() const { return offers_quarantined_; }
  std::uint64_t busy_nacks() const { return busy_nacks_; }

 private:
  void on_packet(const Bytes& payload);
  void start_discovery_round();
  void on_offers_collected();
  void send_deploy_request();
  void finish(DeployOutcome outcome);
  void fail(const std::string& reason);

  // Session internals.
  void set_state(SessionState s);
  void session_cycle();
  void on_session_outcome(const DeployOutcome& outcome);
  void enter_active(const DeployOutcome& outcome);
  void enter_fallback();
  void send_renew();
  void on_lease_ack(const LeaseAck& ack);

  SimDuration jittered(SimDuration base, int attempt) const;
  SimDuration renew_delay() const;
  void cancel_timer(EventId& id);

  // Untrusted-host defenses.
  bool accept_offer(const Offer& offer);      // vet + report; false = drop
  void filter_distrusted_offers();            // quarantine + breaker gate
  CircuitBreaker& breaker_for(const std::string& server);
  void note_breaker_transition(const std::string& server, BreakerState before,
                               const CircuitBreaker& b);
  // Scores the deploy result against the chosen server's breaker/reputation.
  void account_deploy_result(const DeployOutcome& outcome);

  Host* host_;
  Pvnc pvnc_;
  ClientConfig cfg_;
  Port local_port_ = 3031;
  mutable Rng rng_;

  // One discovery/deploy cycle.
  std::uint32_t seq_ = 0;
  bool in_progress_ = false;
  SimTime started_ = 0;
  Ipv4Addr server_;
  std::vector<Offer> offers_;
  int discovery_round_ = 0;
  int deploy_attempt_ = 0;
  Offer chosen_offer_;
  Bytes deploy_bytes_;  // encoded request, reused verbatim on retransmit
  DeployOutcome outcome_;
  DoneCallback done_;
  EventId collect_timer_ = kInvalidEventId;
  EventId rto_timer_ = kInvalidEventId;
  EventId deadline_timer_ = kInvalidEventId;
  bool awaiting_ack_ = false;

  // Session state.
  bool session_ = false;
  bool in_fallback_ = false;  // sticky across rediscovery attempts
  SessionState state_ = SessionState::kIdle;
  StateCallback on_state_;
  DoneCallback session_done_;
  DeviceTunnel* fallback_ = nullptr;
  std::string chain_id_;
  SimDuration lease_ = 0;
  std::uint32_t renew_seq_ = 0;
  int renew_misses_ = 0;
  SimDuration fallback_delay_ = 0;
  std::vector<std::string> degraded_modules_;
  EventId renew_timer_ = kInvalidEventId;
  EventId fallback_timer_ = kInvalidEventId;

  // Migration state. `active_server_` is where the current lease lives:
  // during a migration `server_` already points at the new network while
  // renewals must keep flowing to the old one.
  bool migrating_ = false;
  Ipv4Addr active_server_;
  Ipv4Addr migrate_from_server_;
  std::string migrate_from_chain_;
  SimDuration migrate_drain_ = 0;
  EventId drain_timer_ = kInvalidEventId;

  // Session event counts; each also feeds its pvn.client.* series.
  telemetry::Tally retransmissions_{"pvn.client.deploy_retransmissions"};
  telemetry::Tally failovers_{"pvn.client.failovers"};
  telemetry::Tally recoveries_{"pvn.client.recoveries"};
  telemetry::Tally renews_sent_{"pvn.client.renews_sent"};
  telemetry::Tally renews_acked_{"pvn.client.renews_acked"};
  telemetry::Tally migrations_{"pvn.client.migrations"};

  // Untrusted-host defense state.
  std::uint64_t offers_rejected_ = 0;     // failed vet_offer
  std::uint64_t offers_quarantined_ = 0;  // sender quarantined / breaker open
  std::uint64_t busy_nacks_ = 0;
  std::map<std::string, CircuitBreaker> breakers_;  // by server address
  std::map<std::string, int> busy_streaks_;         // consecutive kBusy NAKs
  SimDuration pending_retry_after_ = 0;  // server's hint for the next retry

  // Telemetry: aggregate control-plane counters plus the spans currently
  // open for this client's session track (session id = device id).
  telemetry::Counter* m_discovery_rounds_ = nullptr;
  telemetry::Counter* m_offers_received_ = nullptr;
  telemetry::Counter* m_deploys_ok_ = nullptr;
  telemetry::Counter* m_deploys_failed_ = nullptr;
  telemetry::Counter* m_offer_expiries_ = nullptr;
  // SLO inputs (ops/health.h): end-to-end deploy-cycle latency of successful
  // deploys, and data-plane blackout (failover -> recovery) durations.
  telemetry::Histogram* m_deploy_latency_ = nullptr;
  telemetry::Histogram* m_blackout_ = nullptr;
  SimTime blackout_started_ = 0;
  telemetry::Span cycle_span_;  // discover_and_deploy -> finish
  telemetry::Span phase_span_;  // current phase: discovery or deploy
  telemetry::Span lease_span_;  // active lease: enter_active -> loss/stop
};

}  // namespace pvn

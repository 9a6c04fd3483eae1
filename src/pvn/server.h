// The access network's PVN deployment server (paper §3.1, Fig. 1b).
//
// Listens for discovery messages, emits offers (possibly for a subset of the
// requested modules, priced from the PVN Store), and on a deployment request
// compiles the PVNC, instantiates the middlebox chain on the MboxHost,
// programs the SdnSwitch through the Controller, and acknowledges.
//
// Resilience (§3.3):
//   - Deployment requests are idempotent: a byte-identical retransmission of
//     an already acked (device, seq) request re-sends the cached ack instead
//     of deploying twice; retransmissions of one still in flight are simply
//     dropped. Any *different* request (a fresh client session) redeploys,
//     replacing the device's deployment or abandoning its deploy in flight.
//   - With ServerConfig::lease_duration > 0 every deployment is a lease.
//     Clients renew with kLeaseRenew; a periodic sweep tears down expired
//     deployments and reclaims their middlebox memory, so a crashed client
//     cannot strand 6 MB per instance forever.
//   - When the MboxHost crashes, chains die with it. Deployments whose lost
//     modules were all optional are degraded: the controller removes just
//     the chain-divert rules so traffic bypasses the dead chain. If a
//     required module is lost the deployment is torn down and the client
//     learns via its next (refused) renewal.
//
// Robustness (overload + Byzantine standbys):
//   - Admission control: at most max_pending_deploys deployments may be in
//     flight; excess requests are shed with an explicit kBusy NAK carrying a
//     retry-after hint, so a flash crowd backs off instead of retransmitting
//     into a black hole. Memory-admission failures NAK as kOutOfMemory.
//   - The lease sweep is amortized: at most max_expiries_per_sweep expired
//     deployments are torn down per tick, the rest drain on follow-up ticks,
//     so a mass expiry cannot monopolize the event loop.
//   - Standby pools: the server can mirror onto several standby hosts. Every
//     streamed checkpoint is acknowledged (kStateAck) with the digest of
//     what the standby applied; a pool whose acks repeatedly contradict what
//     was sent is demoted as Byzantine and its deployments re-mirror onto
//     the next healthy pool, without disturbing the active sessions.
#pragma once

#include <map>
#include <memory>
#include <set>

#include "mbox/host.h"
#include "mbox/registry.h"
#include "proto/host.h"
#include "pvn/billing.h"
#include "pvn/compiler.h"
#include "pvn/discovery.h"
#include "sdn/controller.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"

namespace pvn {

// One warm-standby compute pool: the mbox host chains mirror onto, and the
// address of the StandbyAgent fronting it (checkpoint stream destination).
struct StandbyPoolConfig {
  MboxHost* host = nullptr;
  Ipv4Addr addr;
};

struct ServerConfig {
  // Modules this network will deploy; empty = everything in the store.
  // Models the "partial PVN configuration" case (§3.3).
  std::set<std::string> allowed_modules;
  double price_multiplier = 1.0;
  SimDuration offer_ttl = seconds(30);
  // Deployments become leases when > 0: unrenewed deployments are reclaimed
  // after this long. 0 (default) keeps the original deploy-forever behavior.
  SimDuration lease_duration = 0;
  std::string switch_name;
  int switch_client_port = 0;
  int switch_wan_port = 1;
  int switch_control_port = 2;
  // Multi-device access networks: maps a device address to the switch port
  // it sits behind. When unset, switch_client_port is used for everyone.
  std::function<int(Ipv4Addr)> client_port_for;
  std::string network_name = "access-net";

  // --- survivability (warm standby + migration) ------------------------
  // Warm-standby compute pools, in preference order (index = pool number).
  // When any is set, offers advertise standby capacity, every deployment
  // gets a warm-standby chain on the first healthy pool, and a primary
  // crash promotes the standby through the controller instead of degrading
  // or tearing down. Incremental checkpoints stream to each pool's
  // StandbyAgent as kStateTransfer datagrams. A crashed or demoted
  // (Byzantine) pool fails over to the next healthy one. Hosts must outlive
  // the server.
  std::vector<StandbyPoolConfig> standbys;
  // Period of the incremental checkpoint stream; bounds the staleness of
  // promoted state. <= 0 disables streaming (cold standby).
  SimDuration checkpoint_interval = milliseconds(200);

  // --- robustness (overload control + Byzantine standbys) --------------
  // Bounded pending-work queue: at most this many deployments in flight at
  // once; excess requests are shed with kBusy and a 500 ms retry-after
  // instead of being silently queued without bound. 0 = unbounded (no
  // shedding).
  std::size_t max_pending_deploys = 0;
  // Lease-sweep amortization: tear down at most this many expired
  // deployments per sweep tick (0 = unbounded); the backlog drains on
  // follow-up ticks 10 ms apart, so a mass expiry cannot monopolize the
  // event loop.
  std::size_t max_expiries_per_sweep = 0;
};

class DeploymentServer {
 public:
  DeploymentServer(Host& host, PvnStore& store, MboxHost& mbox_host,
                   Controller& controller, Ledger& ledger, ServerConfig cfg);
  ~DeploymentServer();

  std::uint64_t discoveries_seen() const { return discoveries_.value(); }
  std::uint64_t deployments_active() const { return deployments_.size(); }
  std::uint64_t deployments_total() const { return deploy_count_.value(); }
  std::uint64_t nacks_sent() const { return nacks_.value(); }
  // Resilience telemetry.
  std::uint64_t duplicate_deploys() const { return duplicates_.value(); }
  std::uint64_t leases_renewed() const { return renews_.value(); }
  std::uint64_t leases_expired() const { return leases_expired_.value(); }
  std::uint64_t degraded_deployments() const { return degraded_.value(); }
  std::uint64_t chains_lost() const { return chains_lost_.value(); }
  // Survivability telemetry.
  std::uint64_t standbys_ready() const { return standbys_ready_.value(); }
  std::uint64_t standby_promotions() const { return standby_promotions_.value(); }
  std::uint64_t standbys_lost() const { return standbys_lost_.value(); }
  std::uint64_t checkpoints_streamed() const { return checkpoints_streamed_.value(); }
  std::uint64_t checkpoint_bytes() const { return checkpoint_bytes_.value(); }
  std::uint64_t state_requests_served() const { return state_requests_.value(); }
  std::uint64_t handoffs_completed() const { return handoffs_completed_.value(); }
  std::uint64_t handoff_timeouts() const { return handoff_timeouts_.value(); }
  // Robustness telemetry.
  std::uint64_t deploys_shed() const { return sheds_.value(); }
  std::size_t pending_deploys() const { return inflight_.size(); }
  std::uint64_t sweep_ticks() const { return sweep_ticks_; }
  std::uint64_t max_swept_per_tick() const { return max_swept_per_tick_; }
  std::uint64_t bad_state_acks() const { return bad_state_acks_.value(); }
  std::uint64_t standbys_demoted() const { return standbys_demoted_.value(); }
  std::uint64_t standbys_remirrored() const { return standbys_remirrored_.value(); }

  // Test/experiment hook: makes the server a cheater that silently skips
  // instantiating the named module while still charging for it (§3.3
  // "Validating that configurations ... are correctly deployed").
  void cheat_skip_module(const std::string& module) { skip_module_ = module; }

  // Failure-injection hook: the server goes silent on deployment requests
  // (answers discovery, never acks) — exercises the client's deploy timeout.
  void drop_deploy_requests(bool drop) { drop_deploys_ = drop; }

  // Chaos planted-bug hooks (test-only). Pausing the sweep lets expired
  // leases linger unreclaimed — the auditor's lease-staleness invariant must
  // flag them; bumping the duplicate counter without matching client
  // retransmissions breaks the reply-cache conservation inequality.
  void debug_pause_sweep(bool pause) {
    sweep_paused_ = pause;
    if (!pause) arm_sweep();
  }
  void debug_bump_duplicates(std::uint64_t n) { duplicates_.inc(n); }

  // --- operations-plane introspection ------------------------------------

  // Read-only view of one live deployment for the ops endpoint: chain
  // placement, lease, and standby health, decoupled from the private
  // Deployment bookkeeping.
  struct DeploymentView {
    bool found = false;
    std::string device_id;
    std::string chain_id;
    std::string switch_name;  // the access switch carrying the chain
    std::vector<std::string> modules;
    SimTime lease_expires_at = 0;  // 0 = no lease
    bool degraded = false;
    bool standby_ready = false;
    bool promoted = false;
    int standby_pool = -1;
    std::string standby_host;  // standby pool host addr; "" = no standby
    std::uint64_t checkpoint_seq = 0;
  };
  DeploymentView deployment_view(const std::string& device_id) const;
  // Device ids with a live deployment, sorted.
  std::vector<std::string> deployed_devices() const;

  // Ops verb: promote `device_id`'s warm standby now, without waiting for a
  // primary crash (e.g. ahead of planned maintenance). Returns false when
  // there is no such deployment, no ready standby, or the standby host has
  // itself crashed since mirroring; returns true without re-promoting when
  // the deployment already runs on its standby (idempotent).
  bool force_promote(const std::string& device_id);

 private:
  // One deployment, from admission to teardown: kBuilding -> kInstalling
  // [-> kHandoff] in inflight_, then kLive once the ack moves its map node
  // into deployments_. Its chains live on the mbox hosts under chain_id; a
  // host's chain(chain_id) is nullptr once a crash freed it.
  struct Deployment {
    enum class Phase {
      kBuilding,    // the primary chain's modules are instantiating
      kInstalling,  // the switch diverts into the chain; rules going in
      kHandoff,     // waiting for the old server's checkpoint (migration)
      kLive,        // acked
    };
    Phase phase = Phase::kBuilding;
    std::string cookie;
    std::string chain_id;
    // The request being answered: where the ack or NACK goes, the price
    // the ack charges, and for a migration where the session's state is.
    Ipv4Addr reply_addr;
    Port reply_port = 0;
    double price = 0.0;
    Ipv4Addr handoff_server;  // unspecified: not a migration
    std::string handoff_chain_id;
    bool primary_crashed = false;  // since admission; fails the build
    std::size_t rules_pending = 0;   // kInstalling
    std::uint32_t handoff_seq = 0;   // kHandoff: the StateRequest's seq
    EventId handoff_timer = kInvalidEventId;
    // The server_deploy span, open until the deploy is answered. Its
    // context is the trace that everything later done to the deployment
    // (checkpoint stream, promotion, lease expiry, chain loss) joins.
    telemetry::Span span;
    // Resilience bookkeeping.
    std::uint32_t seq = 0;       // deploy request seq, for deduplication
    Bytes request_bytes;         // encoded request; a duplicate must match it
    Bytes ack_bytes;             // cached ack, re-sent on duplicate requests
    SimTime expires_at = 0;      // 0 = no lease
    bool degraded = false;
    std::vector<std::string> required_modules;  // from the client
    // Survivability bookkeeping.
    Pvnc pvnc;                   // retained to build the standby chain
    int standby_pool = -1;       // index into pools_; -1 = no standby
    bool standby_ready = false;
    bool promoted = false;       // traffic now runs on the standby chain
    std::uint64_t ckpt_seq = 0;
    std::map<std::string, Digest> ckpt_digests;  // incremental-capture state
    EventId ckpt_timer = kInvalidEventId;
    // Byzantine cross-check: digest of the last streamed checkpoint, to be
    // matched against the standby's kStateAck.
    std::uint32_t last_sent_seq = 0;
    Digest last_sent_digest;
    const telemetry::TraceContext& trace() const { return span.context(); }
  };

  // Runtime state of one standby pool.
  struct StandbyPool {
    MboxHost* host = nullptr;
    Ipv4Addr addr;
    bool byzantine = false;  // demoted: never selected again
    int bad_acks = 0;        // consecutive contradicting StateAcks
  };

  void on_packet(Ipv4Addr src, Port sport, const Bytes& payload);
  // Handlers receive the request frame's TraceContext so replies (and any
  // spans opened server-side) stitch into the client's causal trace.
  void handle_discovery(Ipv4Addr src, Port sport, const DiscoveryMessage& dm,
                        const telemetry::TraceContext& trace);
  // Resolves a pvnc:// URI (fetching the object from cloud storage) before
  // handing the request to handle_deploy.
  void resolve_and_deploy(Ipv4Addr src, Port sport, DeployRequest req,
                          const telemetry::TraceContext& trace);
  void handle_deploy(Ipv4Addr src, Port sport, const DeployRequest& req,
                     const telemetry::TraceContext& trace);
  void handle_teardown(Ipv4Addr src, Port sport, const Teardown& td,
                       const telemetry::TraceContext& trace);
  void handle_renew(Ipv4Addr src, Port sport, const LeaseRenew& renew,
                    const telemetry::TraceContext& trace);
  void nack(Ipv4Addr dst, Port dport, std::uint32_t seq,
            const std::string& reason,
            NackCode code = NackCode::kUnspecified, SimDuration retry_after = 0,
            const telemetry::TraceContext& trace = {});

  // --- the steps of an in-flight deploy ----------------------------------
  // Each looks its entry up by device and chain id, so a step of a deploy
  // that was abandoned or superseded meanwhile finds nothing and stops.
  Deployment* in_flight(const std::string& device_id,
                        const std::string& chain_id);
  // The primary chain landed (or failed): compile and program the switch.
  void on_chain_built(const std::string& device_id, const std::string& chain_id,
                      Chain* chain);
  void on_rule_installed(const std::string& device_id,
                         const std::string& chain_id);
  // Migration: fetch the old server's final checkpoint before acking.
  void begin_handoff(const std::string& device_id, Deployment& dep);
  // Answers the in-flight deploy and moves it into deployments_.
  void ack(const std::string& device_id, bool state_restored);
  // NACKs the in-flight deploy and releases its admission slot.
  void fail(const std::string& device_id, const std::string& reason,
            NackCode code, SimDuration retry_after);

  // Makes `pvnc`'s modules from the store, minus the one a cheating server
  // skips. Returns the name of a module the store cannot make, or "".
  std::string make_modules(const Pvnc& pvnc,
                           std::vector<std::unique_ptr<Middlebox>>& out) const;
  // Removes a device's deployment, or abandons its deploy in flight: rules,
  // chain processor, handoff wait, and the chains the hosts still hold. A
  // chain still building is freed when it lands.
  void teardown_device(const std::string& device_id);
  // Takes `dep`'s primary chain out of the dataplane and frees it; ends a
  // handoff wait. A no-op while the chain is still building.
  void unhook(Deployment& dep);
  // Runs synchronously from the crash() of the primary or of a standby
  // pool. A deployment whose live chain died promotes, degrades or is torn
  // down; one that lost only its spare, ready or building, re-mirrors. On
  // the primary it also fails the deploys in flight.
  void on_host_crash(const MboxHost& host);
  void arm_sweep();
  void sweep();

  // --- survivability ---------------------------------------------------
  // Instantiates the warm-standby chain for an acked deployment and starts
  // the incremental checkpoint stream once it is ready.
  void setup_standby(const std::string& device_id);
  void arm_checkpoint(const std::string& device_id);
  void stream_checkpoint(const std::string& device_id);
  void stop_checkpoints(Deployment& dep);
  // Re-points `dep`'s traffic at its ready warm standby through the
  // controller; false when there is none or its host lost the chain.
  bool promote(const std::string& device_id, Deployment& dep);
  // Drops `dep`'s warm standby: stops the checkpoint stream and frees the
  // standby chain if its host still holds it.
  void release_standby(Deployment& dep);
  // First pool that is present, healthy, and not demoted; -1 if none.
  int pick_standby_pool() const;
  bool standby_available() const { return pick_standby_pool() >= 0; }
  // Cross-checks a standby's checkpoint ack against what was streamed;
  // enough contradictions demote the pool as Byzantine.
  void handle_state_ack(const StateAck& sa);
  // Marks the pool Byzantine, destroys its standby chains, and re-mirrors
  // the affected deployments onto the next healthy pool. Active sessions
  // (still running on their primaries) are untouched.
  void demote_pool(int pool, const std::string& why);
  // Degrades `dep` in place when every lost module was optional; returns
  // true when the deployment must be torn down instead.
  bool degrade_or_flag_teardown(const std::string& device_id, Deployment& dep);
  void handle_state_request(Ipv4Addr src, Port sport, const StateRequest& sr,
                            const telemetry::TraceContext& trace);
  void handle_state_transfer(const StateTransfer& xfer,
                             const telemetry::TraceContext& trace);

  Host* host_;
  PvnStore* store_;
  MboxHost* mbox_host_;
  Controller* controller_;
  Ledger* ledger_;
  ServerConfig cfg_;
  std::vector<StandbyPool> pools_;  // cfg_.standbys with a non-null host
  // By device id. A device has an entry in at most one of the two: a
  // deploy tears down the device's deployment before it enters inflight_,
  // and leaves inflight_ by its ack, its NACK or its abandonment.
  std::map<std::string, Deployment> deployments_;
  std::map<std::string, Deployment> inflight_;  // admitted, not yet acked
  std::uint32_t state_seq_ = 0;  // StateRequest sequence numbers
  std::uint64_t chain_seq_ = 0;
  EventId sweep_timer_ = kInvalidEventId;
  std::string skip_module_;
  bool drop_deploys_ = false;
  bool sweep_paused_ = false;
  std::uint64_t sweep_ticks_ = 0;
  std::uint64_t max_swept_per_tick_ = 0;
  // Control-plane event counts; each also feeds its pvn.server.* series.
  telemetry::Tally discoveries_{"pvn.server.discoveries"};
  telemetry::Tally deploy_count_{"pvn.server.deploys"};
  telemetry::Tally nacks_{"pvn.server.nacks"};
  telemetry::Tally duplicates_{"pvn.server.duplicate_deploys"};
  telemetry::Tally renews_{"pvn.server.leases_renewed"};
  telemetry::Tally leases_expired_{"pvn.server.leases_expired"};
  telemetry::Tally degraded_{"pvn.server.degraded"};
  telemetry::Tally chains_lost_{"pvn.server.chains_lost"};
  telemetry::Tally standbys_ready_{"pvn.server.standbys_ready"};
  telemetry::Tally standby_promotions_{"pvn.server.standby_promotions"};
  telemetry::Tally standbys_lost_{"pvn.server.standbys_lost"};
  telemetry::Tally checkpoints_streamed_{"pvn.server.checkpoints_streamed"};
  telemetry::Tally checkpoint_bytes_{"pvn.server.checkpoint_bytes"};
  telemetry::Tally state_requests_{"pvn.server.state_requests"};
  telemetry::Tally handoffs_completed_{"pvn.server.handoffs_completed"};
  telemetry::Tally handoff_timeouts_{"pvn.server.handoff_timeouts"};
  telemetry::Tally sheds_{"pvn.server.deploys_shed"};
  telemetry::Tally bad_state_acks_{"pvn.server.bad_state_acks"};
  telemetry::Tally standbys_demoted_{"pvn.server.standbys_demoted"};
  telemetry::Tally standbys_remirrored_{"pvn.server.standbys_remirrored"};
  telemetry::Counter* m_offers_sent_ =
      &telemetry::MetricsRegistry::global().counter("pvn.server.offers_sent");
  std::unique_ptr<class HttpClient> http_;  // for pvnc:// URI resolution
};

}  // namespace pvn

// PVN Discovery and Deployment Protocol (paper §3.1), over UDP port 3030.
//
//   device                         network
//     | -- DiscoveryMessage  -->     |   (direct, or anycast flooding)
//     | <-- Offer ------------       |   (subset of modules, price, expiry)
//     | -- DeployRequest ---->       |   (PVNC + payment)
//     | <-- DeployAck --------       |   (chain id, lease, DHCP refresh)
//     | <-- DeployNack -------       |   (failure reason)
//     | -- LeaseRenew ------->       |   (periodic, keeps the chain alive)
//     | <-- LeaseAck ---------       |   (extends / rejects the lease)
//
// All datagrams may be lost: clients retransmit with backoff, and the server
// treats a (device_id, seq) pair as idempotent, so duplicates re-ack rather
// than re-deploy. Deployments are leases — a server configured with a lease
// duration expires chains whose owner stops renewing and reclaims their
// middlebox memory.
#pragma once

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "pvn/pvnc.h"
#include "telemetry/trace.h"
#include "util/codec.h"

namespace pvn {

constexpr Port kPvnPort = 3030;

// The PVNC standards every client asks for and every server speaks.
inline const std::vector<std::string> kPvnStandards = {"openflow-lite",
                                                       "mbox-v1"};

enum class PvnMsgType : std::uint8_t {
  kDiscovery = 1,
  kOffer = 2,
  kDeployRequest = 3,
  kDeployAck = 4,
  kDeployNack = 5,
  kTeardown = 6,
  kTeardownAck = 7,
  kLeaseRenew = 8,
  kLeaseAck = 9,
  // Survivability (state checkpoint exchange): a server asks a peer for a
  // device's final chain checkpoint during live migration, and checkpoints
  // stream to warm standbys / migration targets as kStateTransfer.
  kStateRequest = 10,
  kStateTransfer = 11,
  // Robustness: a standby acknowledges each applied checkpoint with the
  // digest of what it applied, so the server can cross-check a Byzantine
  // standby that drops or corrupts state while claiming to hold it.
  kStateAck = 12,
};

// Why a deployment request was refused. kBusy carries a retry-after hint:
// the server is shedding load, not rejecting the request on its merits, so
// the client should back off and retry instead of failing over.
enum class NackCode : std::uint8_t {
  kUnspecified = 0,
  kBusy = 1,          // admission control shed; honor retry_after
  kOutOfMemory = 2,   // middlebox pool cannot hold the chain
  kPolicy = 3,        // a module is not allowed on this network
  kPayment = 4,       // offered payment below the quoted price
  kInvalidPvnc = 5,   // the PVNC (or its URI) failed validation
  kUnavailable = 6,   // mbox host crashed / no dataplane
};
const char* to_string(NackCode code);
constexpr bool wire_valid(NackCode c) { return c <= NackCode::kUnavailable; }

// Every message below is a codec::Message: its fields() list is its wire
// layout (util/codec.h).
struct DiscoveryMessage : codec::Message<DiscoveryMessage> {
  std::uint32_t seq = 0;  // incremented per discovery attempt (§3.1)
  std::string device_id;
  std::vector<std::string> standards;  // e.g. kPvnStandards
  std::vector<std::string> modules;    // requested module names
  std::int64_t est_memory_bytes = 0;

  template <class F> void fields(F& f) {
    f(seq, device_id);
    f.list16(standards, "standards");
    f.list16(modules, "modules");
    f(est_memory_bytes);
  }
};

struct Offer : codec::Message<Offer> {
  std::uint32_t seq = 0;              // echoes the DM seq
  Ipv4Addr deployment_server;
  std::vector<std::string> standards;
  std::vector<std::string> offered_modules;  // may be a subset
  double total_price = 0.0;
  SimTime expires_at = 0;
  // The network has a second mbox host and will place a warm-standby chain
  // (checkpoint-fed) next to every deployment it accepts.
  bool standby_capacity = false;
  // Lease the server would grant (0 = deploy-forever). Advertised so the
  // device can reject absurd terms before paying for a deployment.
  SimDuration lease_duration = 0;
  // Middlebox memory the server claims to have free. A host that lies here
  // (to attract deployments it cannot serve) is caught by vet_offer's
  // plausibility bound and, later, by deploy failures feeding reputation.
  std::int64_t capacity_bytes = 0;

  template <class F> void fields(F& f) {
    f(seq, deployment_server);
    f.list16(standards, "standards");
    f.list16(offered_modules, "offered_modules");
    f(total_price, expires_at, standby_capacity, lease_duration,
      capacity_bytes);
  }
  // Structural hardening: values no honest encoder produces. Subtler
  // adversarial-but-well-formed values are left to vet_offer, so the
  // client can attribute them to the sender.
  bool validate() const {
    return std::isfinite(total_price) && expires_at >= 0 &&
           lease_duration >= 0;
  }
};

// Client-side sanity vetting of a decoded offer (untrusted-host defense):
// structural decode alone cannot reject an offer whose fields are
// well-formed but adversarial — a near-zero lease that forces renewal
// storms, a price no honest network would quote, a capacity claim no
// hardware could back. Offers failing a bound are dropped before
// negotiation and reported against the sender's reputation.
enum class OfferDefect : std::uint8_t {
  kNone = 0,
  kPriceNotFinite,        // NaN / inf / negative price
  kPriceAbsurd,           // above any plausible quote
  kExpired,               // expiry already in the past
  kExpiryTooFar,          // TTL beyond any honest offer lifetime
  kLeaseTooShort,         // nonzero lease shorter than a renewal can sustain
  kLeaseTooLong,          // lease longer than any honest network grants
  kCapacityImplausible,   // negative, or more memory than hardware allows
  kInsufficientCapacity,  // less free memory than the request needs
};
const char* to_string(OfferDefect defect);

struct OfferBounds {
  double max_price = 10'000.0;
  SimDuration min_lease = milliseconds(100);
  SimDuration max_lease = seconds(7 * 24 * 3600);
  SimDuration max_offer_ttl = seconds(3600);
  std::int64_t max_capacity_bytes = 1LL << 40;  // 1 TiB of mbox memory
  // When true, offers advertising less free capacity than the requested
  // chain needs are rejected client-side (kInsufficientCapacity) instead of
  // being discovered via a deploy NAK. Off by default: a legitimately full
  // host is not misbehaving, and tests/benches exercise the NAK path.
  bool require_capacity = false;
};

// Returns the first defect found, or kNone for a sane offer.
// `est_memory_bytes` is what the requesting device's chain needs.
OfferDefect vet_offer(const Offer& offer, std::int64_t est_memory_bytes,
                      const OfferBounds& bounds, SimTime now);

struct DeployRequest : codec::Message<DeployRequest> {
  std::uint32_t seq = 0;
  std::string device_id;
  Pvnc pvnc;
  // Alternative to an inline PVNC (§3.1: "provided to an access network as
  // a URI to a globally accessible PVNC object"): "pvnc://<ipv4>/<path>".
  // When set, the server fetches and decodes the object itself and deploys
  // the subset of it that its policy allows.
  std::string pvnc_uri;
  double payment = 0.0;
  // The client's hard constraints among the deployed modules. If one of
  // these is later lost to a middlebox failure the server must reject the
  // lease (the client falls back to tunneling) instead of degrading.
  std::vector<std::string> required_modules;
  // Live migration handoff: when handoff_server is set, the device carries
  // an active deployment (`handoff_chain_id`) on that server, and this
  // server should fetch its final state checkpoint (kStateRequest) before
  // acking, so stateful modules resume instead of cold-starting.
  Ipv4Addr handoff_server;
  std::string handoff_chain_id;

  template <class F> void fields(F& f) {
    f(seq, device_id);
    f.blob(pvnc);
    f(pvnc_uri, payment);
    f.list16(required_modules, "required_modules");
    f(handoff_server, handoff_chain_id);
  }
  // As Offer's price: a NaN payment would pass the server's
  // `payment < price` check.
  bool validate() const { return std::isfinite(payment); }
};

// Parses "pvnc://<ipv4>/<path>"; returns false on malformed input.
bool parse_pvnc_uri(const std::string& uri, Ipv4Addr& host, std::string& path);

struct DeployAck : codec::Message<DeployAck> {
  std::uint32_t seq = 0;
  std::string chain_id;
  bool dhcp_refresh = true;
  // How long the deployment stays alive without a renew (0 = no lease: the
  // chain persists until an explicit teardown).
  SimDuration lease_duration = 0;
  // A warm-standby chain backs this deployment (crashes promote instead of
  // falling back to the device tunnel).
  bool standby = false;
  // The deployment resumed from a migration handoff checkpoint.
  bool state_restored = false;

  template <class F> void fields(F& f) {
    f(seq, chain_id, dhcp_refresh, lease_duration, standby, state_restored);
  }
  bool validate() const { return lease_duration >= 0; }
};

struct LeaseRenew : codec::Message<LeaseRenew> {
  std::uint32_t seq = 0;
  std::string device_id;
  std::string chain_id;

  template <class F> void fields(F& f) { f(seq, device_id, chain_id); }
};

struct LeaseAck : codec::Message<LeaseAck> {
  std::uint32_t seq = 0;
  bool ok = false;
  SimDuration lease_duration = 0;
  // Modules the server can no longer run (middlebox failure) but has
  // bypassed because the client marked them optional.
  std::vector<std::string> degraded_modules;
  std::string reason;  // set when !ok

  template <class F> void fields(F& f) {
    f(seq, ok, lease_duration);
    f.list16(degraded_modules, "degraded_modules");
    f(reason);
  }
  bool validate() const { return lease_duration >= 0; }
};

struct DeployNack : codec::Message<DeployNack> {
  std::uint32_t seq = 0;
  std::string reason;
  NackCode code = NackCode::kUnspecified;
  // kBusy / kOutOfMemory: how long the client should wait before retrying
  // this server. 0 = no hint (fail over immediately).
  SimDuration retry_after = 0;

  template <class F> void fields(F& f) { f(seq, reason, code, retry_after); }
  bool validate() const { return retry_after >= 0; }
};

struct Teardown : codec::Message<Teardown> {
  std::string device_id;

  template <class F> void fields(F& f) { f(device_id); }
};

// Asks the server holding `chain_id` for `device_id` to reply with that
// chain's final checkpoint (live migration, new server -> old server).
struct StateRequest : codec::Message<StateRequest> {
  std::uint32_t seq = 0;
  std::string device_id;
  std::string chain_id;

  template <class F> void fields(F& f) { f(seq, device_id, chain_id); }
};

// Carries one digest-protected ChainCheckpoint (mbox/checkpoint.h): either
// a periodic incremental toward a warm standby, or the final full snapshot
// answering a StateRequest. `checkpoint` is opaque here; receivers validate
// it with ChainCheckpoint::decode, which rejects any corruption outright.
struct StateTransfer : codec::Message<StateTransfer> {
  std::uint32_t seq = 0;
  std::string device_id;
  std::string chain_id;
  bool ok = false;       // false: the sender had no state to hand over
  Bytes checkpoint;

  template <class F> void fields(F& f) {
    f(seq, device_id, chain_id, ok, checkpoint);
  }
};

// A standby's acknowledgment of one applied kStateTransfer. `digest` is the
// digest of the checkpoint bytes the standby actually applied; the server
// cross-checks it against what it sent, so a Byzantine standby that drops
// or rewrites state while claiming to hold it is detected and demoted.
struct StateAck : codec::Message<StateAck> {
  std::uint32_t seq = 0;
  std::string device_id;
  std::string chain_id;
  bool applied = false;
  Bytes digest;

  template <class F> void fields(F& f) {
    f(seq, device_id, chain_id, applied, digest);
  }
};

// Wraps/unwraps a typed message for the UDP payload. Every frame carries a
// TraceContext trailer (telemetry/trace.h) after the body blob: trace_id 0
// (an empty `{}` context) means untraced. The trailer lives in the framing,
// not the message structs, so retransmission byte-identity is preserved —
// the server dedups on body bytes and re-sends cached full frames verbatim.
Bytes wrap(PvnMsgType type, const Bytes& body,
           const telemetry::TraceContext& trace);

// Full frame view; decode is all-or-nothing (truncating the trailer rejects
// the whole frame).
struct PvnFrame {
  PvnMsgType type{};
  Bytes body;
  telemetry::TraceContext trace;
};
std::optional<PvnFrame> unwrap_frame(const Bytes& payload);

}  // namespace pvn

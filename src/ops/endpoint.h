// In-sim operations endpoint: the admin surface of a PVN provider.
//
// An OpsEndpoint binds kOpsPort on a Host inside the simulated network and
// serves the ops protocol (proto/ops.h):
//
//   * Metrics snapshots: 1 ms after the request arrives, one simulator
//     event captures the registry and sends the reply as an ordinary
//     simulated datagram.
//   * Per-session introspection, joining the DeploymentServer's registry
//     (chain placement, lease, standby health), the HostScoreboard
//     (reputation + quarantine of the session's standby host), and the
//     SpanRecorder (last-N control-plane spans for the device).
//   * Reconfiguration verbs — SDN rule injection, cache wipes, forced
//     standby promotion, quarantine override, flight-recorder sampling
//     rate. Every verb lands in a bounded audit log; replies are cached per
//     (admin address, seq) so a retransmitted request re-sends the cached
//     reply instead of applying the verb twice.
//   * Flight-recorder dumps as Chrome trace JSON.
//   * The SLO health plane: get-alerts evaluates the wired HealthMonitor
//     and returns its typed alerts; get-trace assembles the newest stitched
//     causal trace for one session (spans + critical path). Both answer
//     1 ms after the request arrives, like snapshots, carry a digest over
//     their payload, and land in the audit log.
//
// All collaborators are optional: an endpoint wired to nothing still serves
// snapshots (of the global registry) and answers everything else with a
// clean "not wired" failure.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "proto/host.h"
#include "proto/ops.h"
#include "telemetry/metrics.h"

namespace pvn {

class Controller;
class DeploymentServer;
class HostScoreboard;
class FlightRecorder;
class HealthMonitor;
namespace telemetry {
class SpanRecorder;
}  // namespace telemetry

struct OpsEndpointConfig {
  Port port = kOpsPort;
  // Cached replies for idempotent retransmission handling; oldest evicted.
  std::size_t reply_cache_capacity = 256;
  // Audit log bound; oldest entries roll off.
  std::size_t audit_capacity = 256;
};

class OpsEndpoint {
 public:
  OpsEndpoint(Host& host, OpsEndpointConfig cfg = {});

  // --- wiring (all optional) ----------------------------------------------
  void set_controller(Controller* c) { controller_ = c; }
  void set_deployment_server(DeploymentServer* s) { server_ = s; }
  void set_scoreboard(HostScoreboard* sb) { scoreboard_ = sb; }
  void set_span_recorder(telemetry::SpanRecorder* sr) { spans_ = sr; }
  void set_flight_recorder(FlightRecorder* fr) { recorder_ = fr; }
  // SLO health plane: get-alerts evaluates this monitor.
  void set_health_monitor(HealthMonitor* hm) { health_ = hm; }
  // Defaults to telemetry::MetricsRegistry::global().
  void set_registry(telemetry::MetricsRegistry* reg) { registry_ = reg; }

  // Registers a wipeable cache for the kWipeCache verb. The callback wipes
  // and returns how many entries it dropped.
  using CacheWipe = std::function<std::size_t()>;
  void register_cache(std::string id, CacheWipe wipe);

  // --- audit + introspection ----------------------------------------------
  struct AuditEntry {
    SimTime at = 0;
    Ipv4Addr from{};
    std::uint32_t seq = 0;
    OpsVerb verb = OpsVerb::kWipeCache;
    bool ok = false;
    bool applied = false;
    std::string detail;
    // Non-empty for audited read verbs ("get-alerts", "get-trace"); the
    // OpsVerb field is meaningful for reconfigurations only.
    std::string query;
  };
  const std::deque<AuditEntry>& audit_log() const { return audit_; }

  std::uint64_t requests_seen() const { return requests_.value(); }
  std::uint64_t snapshots_served() const { return snapshots_.value(); }
  std::uint64_t alerts_served() const { return alerts_served_.value(); }
  std::uint64_t traces_served() const { return traces_served_.value(); }
  std::uint64_t reconfigs_applied() const { return applied_.value(); }
  std::uint64_t duplicates_suppressed() const { return duplicates_.value(); }
  std::uint64_t malformed_dropped() const { return malformed_.value(); }

 private:
  struct CachedReply {
    bool done = false;  // false while the verb is still in flight
    Bytes reply;        // the full encoded datagram, re-sent verbatim
  };
  using ReplyKey = std::pair<std::uint64_t, std::uint32_t>;  // (addr, seq)

  void on_datagram(Ipv4Addr src, Port sport, const Bytes& payload);
  void handle_snapshot(Ipv4Addr src, Port sport, const OpsSnapshotRequest& q);
  void handle_session(Ipv4Addr src, Port sport, const OpsSessionQuery& q);
  void handle_reconfig(Ipv4Addr src, Port sport, const OpsReconfigRequest& q);
  void handle_trace(Ipv4Addr src, Port sport, const OpsTraceDumpRequest& q);
  void handle_alerts(Ipv4Addr src, Port sport, const OpsAlertsRequest& q);
  void handle_causal_trace(Ipv4Addr src, Port sport, const OpsTraceRequest& q);
  void audit_query(Ipv4Addr src, std::uint32_t seq, const std::string& query,
                   const std::string& detail);
  // Caches, audits, counts, and sends the reply for an in-flight verb.
  void finalize_reconfig(Ipv4Addr src, Port sport, const ReplyKey& key,
                         const OpsReconfigReply& reply,
                         const std::string& detail);
  void send(Ipv4Addr dst, Port dport, OpsMsgType type, const Bytes& body);

  Host* host_;
  OpsEndpointConfig cfg_;
  Controller* controller_ = nullptr;
  DeploymentServer* server_ = nullptr;
  HostScoreboard* scoreboard_ = nullptr;
  telemetry::SpanRecorder* spans_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
  HealthMonitor* health_ = nullptr;
  telemetry::MetricsRegistry* registry_;  // never null
  std::vector<std::pair<std::string, CacheWipe>> caches_;

  std::map<ReplyKey, CachedReply> reply_cache_;
  std::deque<ReplyKey> reply_order_;  // FIFO eviction
  std::deque<AuditEntry> audit_;

  telemetry::Tally requests_{"ops.endpoint.requests"};
  telemetry::Tally snapshots_{"ops.endpoint.snapshots"};
  telemetry::Tally alerts_served_{"ops.endpoint.alerts"};
  telemetry::Tally traces_served_{"ops.endpoint.causal_traces"};
  telemetry::Tally applied_{"ops.endpoint.reconfigs_applied"};
  telemetry::Tally duplicates_{"ops.endpoint.duplicates"};
  telemetry::Tally malformed_{"ops.endpoint.malformed"};
};

}  // namespace pvn

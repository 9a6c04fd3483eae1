// Operations-plane wire protocol (UDP port 3100).
//
// The in-sim admin surface (src/ops/endpoint.h) speaks this small typed
// request/response protocol over the simulated network, modeled on the
// operational endpoints real control software exposes (PowerDNS's
// statmaster/json_ws surface):
//
//   admin                          OpsEndpoint
//     | -- OpsSnapshotRequest -->     |  (metrics at one simulated instant)
//     | <-- OpsSnapshotReply ---      |
//     | -- OpsSessionQuery ---->      |  (one session's live state)
//     | <-- OpsSessionInfo -----      |
//     | -- OpsReconfigRequest ->      |  (audited, idempotent admin verb)
//     | <-- OpsReconfigReply ---      |
//     | -- OpsTraceDumpRequest ->     |  (flight-recorder Chrome trace)
//     | <-- OpsTraceDumpReply --      |
//
// All datagrams may be lost; requests carry a per-admin sequence number and
// the endpoint caches the encoded reply per (source, seq), so a
// retransmitted reconfiguration re-sends the cached reply instead of
// applying the verb twice. Decoding is all-or-nothing: a truncated or
// bit-flipped request fails decode outright, so a reconfiguration can never
// be partially applied.
//
// This header lives in src/proto but compiles into its own little library
// (pvn_opsproto) because the rule-injection verb carries an sdn::FlowRule
// on the wire — pvn_proto itself must stay below pvn_sdn.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "proto/l4.h"
#include "sdn/flow_table.h"
#include "util/time.h"

namespace pvn {

constexpr Port kOpsPort = 3100;

enum class OpsMsgType : std::uint8_t {
  kSnapshotRequest = 1,
  kSnapshotReply = 2,
  kSessionQuery = 3,
  kSessionInfo = 4,
  kReconfigRequest = 5,
  kReconfigReply = 6,
  kTraceDumpRequest = 7,
  kTraceDumpReply = 8,
  // SLO health plane: typed alerts from the declarative rule monitor
  // (src/ops/health.h) and stitched causal traces (telemetry/assembler.h).
  kAlertsRequest = 9,
  kAlertsReply = 10,
  kTraceRequest = 11,
  kTraceReply = 12,
};
const char* to_string(OpsMsgType t);

// Runtime reconfiguration verbs. Every verb is audited and idempotent.
enum class OpsVerb : std::uint8_t {
  kInjectRule = 1,         // install an SDN flow rule through the controller
  kWipeCache = 2,          // clear a registered cache ("" = all of them)
  kPromoteStandby = 3,     // force a deployment onto its warm standby now
  kQuarantineOverride = 4, // force a host into / out of quarantine
  kSetSamplingRate = 5,    // flight-recorder packet sampling interval
};
const char* to_string(OpsVerb v);

// One metric value inside a snapshot reply. Histograms are summarized as
// (count, sum) — buckets stay server-side; the consistency digest covers
// these fields for every sample.
struct OpsMetricSample {
  std::string name;
  std::string instance;
  std::uint8_t kind = 0;  // telemetry::MetricKind as u8
  std::uint64_t counter_value = 0;
  std::int64_t gauge_value = 0;
  std::uint64_t hist_count = 0;
  std::uint64_t hist_sum = 0;

  bool operator==(const OpsMetricSample&) const = default;
};

// Asks for a metrics snapshot. 1 ms after the request arrives, one
// simulator event captures every metric whose name starts with `prefix`
// ("" = everything) and sends the reply.
struct OpsSnapshotRequest {
  std::uint32_t seq = 0;
  std::string prefix;

  Bytes encode() const;
  static std::optional<OpsSnapshotRequest> decode(const Bytes& raw);
};

struct OpsSnapshotReply {
  std::uint32_t seq = 0;
  SimTime barrier_time = 0;   // when the snapshot was captured
  std::uint64_t digest = 0;   // fnv-style digest over `samples`
  std::vector<OpsMetricSample> samples;

  Bytes encode() const;
  static std::optional<OpsSnapshotReply> decode(const Bytes& raw);
};

struct OpsSessionQuery {
  std::uint32_t seq = 0;
  std::string device_id;
  std::uint32_t max_spans = 8;  // last-N control-plane spans to include

  Bytes encode() const;
  static std::optional<OpsSessionQuery> decode(const Bytes& raw);
};

// One control-plane span (telemetry/span.h) in a session-info reply.
struct OpsSpan {
  std::string name;
  std::string category;
  SimTime start = 0;
  SimTime end = -1;  // -1 = still open

  bool operator==(const OpsSpan&) const = default;
};

struct OpsSessionInfo {
  std::uint32_t seq = 0;
  bool found = false;
  std::string device_id;
  // Chain placement (deployment registry).
  std::string chain_id;
  std::string switch_name;
  std::vector<std::string> modules;
  SimTime lease_expires_at = 0;  // 0 = no lease
  bool degraded = false;
  // Standby health.
  bool standby_ready = false;
  bool promoted = false;
  std::int32_t standby_pool = -1;
  std::uint64_t checkpoint_seq = 0;
  // Reputation of the device's host network as the client sees it (or of
  // the queried host when the endpoint serves a scoreboard view).
  double reputation = 1.0;
  bool quarantined = false;
  // Last-N control-plane spans for this session, oldest first.
  std::vector<OpsSpan> spans;

  Bytes encode() const;
  static std::optional<OpsSessionInfo> decode(const Bytes& raw);
};

struct OpsReconfigRequest {
  std::uint32_t seq = 0;  // idempotency key, scoped to the admin source addr
  OpsVerb verb = OpsVerb::kWipeCache;
  // kInjectRule: rule.hit counters / cached specificity are not wire fields.
  std::string switch_name;
  std::int32_t table = 0;
  FlowRule rule;
  // kWipeCache: "" wipes every registered cache.
  std::string cache_id;
  // kPromoteStandby.
  std::string device_id;
  // kQuarantineOverride: quarantine=1 forces in, 0 forces out.
  std::string target_host;
  std::uint8_t quarantine = 0;
  // kSetSamplingRate: 0 disables sampling.
  std::uint32_t sample_interval = 0;

  Bytes encode() const;
  static std::optional<OpsReconfigRequest> decode(const Bytes& raw);
};

struct OpsReconfigReply {
  std::uint32_t seq = 0;
  OpsVerb verb = OpsVerb::kWipeCache;
  bool ok = false;       // the verb was understood and its target existed
  bool applied = false;  // false on a duplicate replay or a no-op
  std::string detail;

  Bytes encode() const;
  static std::optional<OpsReconfigReply> decode(const Bytes& raw);
};

struct OpsTraceDumpRequest {
  std::uint32_t seq = 0;

  Bytes encode() const;
  static std::optional<OpsTraceDumpRequest> decode(const Bytes& raw);
};

struct OpsTraceDumpReply {
  std::uint32_t seq = 0;
  std::uint32_t samples = 0;   // flight-recorder samples in the dump
  std::string trace_json;      // Chrome trace_event JSON

  Bytes encode() const;
  static std::optional<OpsTraceDumpReply> decode(const Bytes& raw);
};

// One typed health alert from the SLO monitor (ops/health.h). `firing`
// distinguishes live breaches from cleared history the monitor retains.
struct OpsAlert {
  std::string rule;    // rule name, e.g. "deploy-p99"
  std::string metric;  // the series the rule watches
  std::uint8_t firing = 0;
  double value = 0.0;      // last evaluated value
  double threshold = 0.0;  // the fire threshold
  SimTime since = 0;       // when the alert entered its current state
  std::uint32_t windows = 0;  // consecutive windows in breach at evaluation

  bool operator==(const OpsAlert&) const = default;
};

struct OpsAlertsRequest {
  std::uint32_t seq = 0;

  Bytes encode() const;
  static std::optional<OpsAlertsRequest> decode(const Bytes& raw);
};

struct OpsAlertsReply {
  std::uint32_t seq = 0;
  SimTime barrier_time = 0;  // when the monitor was evaluated
  std::uint64_t digest = 0;  // ops_alerts_digest over `alerts`
  std::vector<OpsAlert> alerts;

  Bytes encode() const;
  static std::optional<OpsAlertsReply> decode(const Bytes& raw);
};

// Asks for the newest stitched causal trace of one PVN session (device id).
struct OpsTraceRequest {
  std::uint32_t seq = 0;
  std::string session;

  Bytes encode() const;
  static std::optional<OpsTraceRequest> decode(const Bytes& raw);
};

// One stitched span (or critical-path segment: parent_span unused there).
struct OpsTraceSpan {
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
  std::string name;
  std::string node;
  SimTime start = 0;
  SimTime end = -1;  // -1 = still open at capture

  bool operator==(const OpsTraceSpan&) const = default;
};

struct OpsTraceReply {
  std::uint32_t seq = 0;
  bool found = false;
  std::uint64_t trace_id = 0;
  std::string session;
  SimTime start = 0;
  SimTime end = 0;
  std::uint64_t digest = 0;  // ops_trace_digest over the fields below
  std::vector<OpsTraceSpan> spans;     // by (start, seq): causal order
  std::vector<OpsTraceSpan> critical;  // critical-path partition of [start,end]

  Bytes encode() const;
  static std::optional<OpsTraceReply> decode(const Bytes& raw);
};

// FlowRule wire codec, shared by OpsReconfigRequest and its tests. Encodes
// priority, cookie, match, and actions (not the mutable hit counters).
void encode_flow_rule(ByteWriter& w, const FlowRule& rule);
// Returns nullopt (and latches the reader's error flag) on any malformed
// field — unknown action tag, bad prefix length, truncation.
std::optional<FlowRule> decode_flow_rule(ByteReader& r);

// Semantic equality over the wire fields of a rule (FlowRule itself carries
// mutable counters, so it has no operator==).
bool same_rule(const FlowRule& a, const FlowRule& b);

// Wraps/unwraps a typed ops message for the UDP payload.
Bytes ops_wrap(OpsMsgType type, const Bytes& body);
std::optional<std::pair<OpsMsgType, Bytes>> ops_unwrap(const Bytes& payload);

// Order-sensitive digest over a snapshot's samples — its determinism
// fingerprint: equal digests <=> byte-equal sample lists.
std::uint64_t ops_snapshot_digest(const std::vector<OpsMetricSample>& samples);

// Same fingerprint discipline for the health plane's get-alerts and
// get-trace replies.
std::uint64_t ops_alerts_digest(const std::vector<OpsAlert>& alerts);
std::uint64_t ops_trace_digest(std::uint64_t trace_id,
                               const std::string& session, SimTime start,
                               SimTime end,
                               const std::vector<OpsTraceSpan>& spans,
                               const std::vector<OpsTraceSpan>& critical);

}  // namespace pvn

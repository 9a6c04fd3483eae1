#include "proto/ops.h"

#include <cmath>
#include <cstring>

#include "util/hash.h"

namespace pvn {
namespace {

void encode_strings(ByteWriter& w, const std::vector<std::string>& v) {
  w.u16(static_cast<std::uint16_t>(v.size()));
  for (const std::string& s : v) w.str(s);
}

std::vector<std::string> decode_strings(ByteReader& r) {
  std::vector<std::string> out;
  const std::uint16_t n = r.u16();
  for (std::uint16_t i = 0; i < n; ++i) {
    if (!r.ok()) break;
    out.push_back(r.str());
  }
  return out;
}

void encode_prefix(ByteWriter& w, const Prefix& p) {
  w.u32(p.addr.v);
  w.u8(static_cast<std::uint8_t>(p.len));
}

// Sets `out` on success; latches `valid` false on a malformed length.
void decode_prefix(ByteReader& r, Prefix& out, bool& valid) {
  out.addr = Ipv4Addr{r.u32()};
  const std::uint8_t len = r.u8();
  if (len > 32) valid = false;
  out.len = len;
}

// FlowMatch: a presence bitmask, then the set fields in declaration order.
enum MatchBits : std::uint8_t {
  kMatchInPort = 1u << 0,
  kMatchSrc = 1u << 1,
  kMatchDst = 1u << 2,
  kMatchProto = 1u << 3,
  kMatchSrcPort = 1u << 4,
  kMatchDstPort = 1u << 5,
  kMatchTos = 1u << 6,
};

void encode_match(ByteWriter& w, const FlowMatch& m) {
  std::uint8_t bits = 0;
  if (m.in_port) bits |= kMatchInPort;
  if (m.src) bits |= kMatchSrc;
  if (m.dst) bits |= kMatchDst;
  if (m.proto) bits |= kMatchProto;
  if (m.src_port) bits |= kMatchSrcPort;
  if (m.dst_port) bits |= kMatchDstPort;
  if (m.tos) bits |= kMatchTos;
  w.u8(bits);
  if (m.in_port) w.u32(static_cast<std::uint32_t>(*m.in_port));
  if (m.src) encode_prefix(w, *m.src);
  if (m.dst) encode_prefix(w, *m.dst);
  if (m.proto) w.u8(static_cast<std::uint8_t>(*m.proto));
  if (m.src_port) w.u16(*m.src_port);
  if (m.dst_port) w.u16(*m.dst_port);
  if (m.tos) w.u8(*m.tos);
}

bool valid_proto(std::uint8_t p) {
  switch (static_cast<IpProto>(p)) {
    case IpProto::kIcmp:
    case IpProto::kTcp:
    case IpProto::kUdp:
    case IpProto::kEsp:
      return true;
  }
  return false;
}

std::optional<FlowMatch> decode_match(ByteReader& r) {
  FlowMatch m;
  bool valid = true;
  const std::uint8_t bits = r.u8();
  if ((bits & ~(kMatchInPort | kMatchSrc | kMatchDst | kMatchProto |
                kMatchSrcPort | kMatchDstPort | kMatchTos)) != 0) {
    return std::nullopt;
  }
  if (bits & kMatchInPort) m.in_port = static_cast<int>(r.u32());
  if (bits & kMatchSrc) {
    Prefix p;
    decode_prefix(r, p, valid);
    m.src = p;
  }
  if (bits & kMatchDst) {
    Prefix p;
    decode_prefix(r, p, valid);
    m.dst = p;
  }
  if (bits & kMatchProto) {
    const std::uint8_t p = r.u8();
    if (!valid_proto(p)) return std::nullopt;
    m.proto = static_cast<IpProto>(p);
  }
  if (bits & kMatchSrcPort) m.src_port = r.u16();
  if (bits & kMatchDstPort) m.dst_port = r.u16();
  if (bits & kMatchTos) m.tos = r.u8();
  if (!valid || !r.ok()) return std::nullopt;
  return m;
}

// Actions: u8 tag = variant index + 1, then the payload.
void encode_action(ByteWriter& w, const Action& a) {
  w.u8(static_cast<std::uint8_t>(a.index() + 1));
  std::visit(
      [&w](const auto& act) {
        using T = std::decay_t<decltype(act)>;
        if constexpr (std::is_same_v<T, ActOutput>) {
          w.u32(static_cast<std::uint32_t>(act.port));
        } else if constexpr (std::is_same_v<T, ActDrop>) {
          // no payload
        } else if constexpr (std::is_same_v<T, ActSetTos>) {
          w.u8(act.tos);
        } else if constexpr (std::is_same_v<T, ActSetDst>) {
          w.u32(act.dst.v);
        } else if constexpr (std::is_same_v<T, ActMbox>) {
          w.str(act.chain_id);
        } else if constexpr (std::is_same_v<T, ActMeter>) {
          w.str(act.meter_id);
        } else if constexpr (std::is_same_v<T, ActGotoTable>) {
          w.u32(static_cast<std::uint32_t>(act.table));
        } else if constexpr (std::is_same_v<T, ActTunnel>) {
          w.u32(act.gateway.v);
        }
      },
      a);
}

std::optional<Action> decode_action(ByteReader& r) {
  const std::uint8_t tag = r.u8();
  if (!r.ok()) return std::nullopt;
  switch (tag) {
    case 1: return Action{ActOutput{static_cast<int>(r.u32())}};
    case 2: return Action{ActDrop{}};
    case 3: return Action{ActSetTos{r.u8()}};
    case 4: return Action{ActSetDst{Ipv4Addr{r.u32()}}};
    case 5: return Action{ActMbox{r.str()}};
    case 6: return Action{ActMeter{r.str()}};
    case 7: return Action{ActGotoTable{static_cast<int>(r.u32())}};
    case 8: return Action{ActTunnel{Ipv4Addr{r.u32()}}};
    default: return std::nullopt;  // unknown action: reject the whole rule
  }
}

}  // namespace

const char* to_string(OpsMsgType t) {
  switch (t) {
    case OpsMsgType::kSnapshotRequest: return "snapshot-request";
    case OpsMsgType::kSnapshotReply: return "snapshot-reply";
    case OpsMsgType::kSessionQuery: return "session-query";
    case OpsMsgType::kSessionInfo: return "session-info";
    case OpsMsgType::kReconfigRequest: return "reconfig-request";
    case OpsMsgType::kReconfigReply: return "reconfig-reply";
    case OpsMsgType::kTraceDumpRequest: return "trace-dump-request";
    case OpsMsgType::kTraceDumpReply: return "trace-dump-reply";
    case OpsMsgType::kAlertsRequest: return "alerts-request";
    case OpsMsgType::kAlertsReply: return "alerts-reply";
    case OpsMsgType::kTraceRequest: return "trace-request";
    case OpsMsgType::kTraceReply: return "trace-reply";
  }
  return "?";
}

const char* to_string(OpsVerb v) {
  switch (v) {
    case OpsVerb::kInjectRule: return "inject-rule";
    case OpsVerb::kWipeCache: return "wipe-cache";
    case OpsVerb::kPromoteStandby: return "promote-standby";
    case OpsVerb::kQuarantineOverride: return "quarantine-override";
    case OpsVerb::kSetSamplingRate: return "set-sampling-rate";
  }
  return "?";
}

void encode_flow_rule(ByteWriter& w, const FlowRule& rule) {
  w.u32(static_cast<std::uint32_t>(rule.priority));
  w.str(rule.cookie);
  encode_match(w, rule.match);
  w.u16(static_cast<std::uint16_t>(rule.actions.size()));
  for (const Action& a : rule.actions) encode_action(w, a);
}

std::optional<FlowRule> decode_flow_rule(ByteReader& r) {
  FlowRule rule;
  rule.priority = static_cast<int>(r.u32());
  rule.cookie = r.str();
  auto match = decode_match(r);
  if (!match) return std::nullopt;
  rule.match = *match;
  const std::uint16_t n = r.u16();
  for (std::uint16_t i = 0; i < n; ++i) {
    if (!r.ok()) return std::nullopt;
    auto act = decode_action(r);
    if (!act) return std::nullopt;
    rule.actions.push_back(std::move(*act));
  }
  if (!r.ok()) return std::nullopt;
  return rule;
}

bool same_rule(const FlowRule& a, const FlowRule& b) {
  return a.priority == b.priority && a.cookie == b.cookie &&
         a.match == b.match && a.actions == b.actions;
}

Bytes OpsSnapshotRequest::encode() const {
  ByteWriter w;
  w.u32(seq);
  w.str(prefix);
  return std::move(w).take();
}

std::optional<OpsSnapshotRequest> OpsSnapshotRequest::decode(const Bytes& raw) {
  ByteReader r(raw);
  OpsSnapshotRequest m;
  m.seq = r.u32();
  m.prefix = r.str();
  if (!r.exhausted()) return std::nullopt;
  return m;
}

Bytes OpsSnapshotReply::encode() const {
  ByteWriter w;
  w.u32(seq);
  w.i64(barrier_time);
  w.u64(digest);
  w.u32(static_cast<std::uint32_t>(samples.size()));
  for (const OpsMetricSample& s : samples) {
    w.str(s.name);
    w.str(s.instance);
    w.u8(s.kind);
    w.u64(s.counter_value);
    w.i64(s.gauge_value);
    w.u64(s.hist_count);
    w.u64(s.hist_sum);
  }
  return std::move(w).take();
}

std::optional<OpsSnapshotReply> OpsSnapshotReply::decode(const Bytes& raw) {
  ByteReader r(raw);
  OpsSnapshotReply m;
  m.seq = r.u32();
  m.barrier_time = r.i64();
  m.digest = r.u64();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!r.ok()) return std::nullopt;
    OpsMetricSample s;
    s.name = r.str();
    s.instance = r.str();
    s.kind = r.u8();
    s.counter_value = r.u64();
    s.gauge_value = r.i64();
    s.hist_count = r.u64();
    s.hist_sum = r.u64();
    m.samples.push_back(std::move(s));
  }
  if (!r.exhausted()) return std::nullopt;
  return m;
}

Bytes OpsSessionQuery::encode() const {
  ByteWriter w;
  w.u32(seq);
  w.str(device_id);
  w.u32(max_spans);
  return std::move(w).take();
}

std::optional<OpsSessionQuery> OpsSessionQuery::decode(const Bytes& raw) {
  ByteReader r(raw);
  OpsSessionQuery m;
  m.seq = r.u32();
  m.device_id = r.str();
  m.max_spans = r.u32();
  if (!r.exhausted()) return std::nullopt;
  return m;
}

Bytes OpsSessionInfo::encode() const {
  ByteWriter w;
  w.u32(seq);
  w.u8(found ? 1 : 0);
  w.str(device_id);
  w.str(chain_id);
  w.str(switch_name);
  encode_strings(w, modules);
  w.i64(lease_expires_at);
  w.u8(degraded ? 1 : 0);
  w.u8(standby_ready ? 1 : 0);
  w.u8(promoted ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(standby_pool));
  w.u64(checkpoint_seq);
  w.f64(reputation);
  w.u8(quarantined ? 1 : 0);
  w.u16(static_cast<std::uint16_t>(spans.size()));
  for (const OpsSpan& s : spans) {
    w.str(s.name);
    w.str(s.category);
    w.i64(s.start);
    w.i64(s.end);
  }
  return std::move(w).take();
}

std::optional<OpsSessionInfo> OpsSessionInfo::decode(const Bytes& raw) {
  ByteReader r(raw);
  OpsSessionInfo m;
  m.seq = r.u32();
  m.found = r.u8() != 0;
  m.device_id = r.str();
  m.chain_id = r.str();
  m.switch_name = r.str();
  m.modules = decode_strings(r);
  m.lease_expires_at = r.i64();
  m.degraded = r.u8() != 0;
  m.standby_ready = r.u8() != 0;
  m.promoted = r.u8() != 0;
  m.standby_pool = static_cast<std::int32_t>(r.u32());
  m.checkpoint_seq = r.u64();
  m.reputation = r.f64();
  if (!std::isfinite(m.reputation) || m.reputation < 0.0 ||
      m.reputation > 1.0) {
    return std::nullopt;
  }
  m.quarantined = r.u8() != 0;
  const std::uint16_t n = r.u16();
  for (std::uint16_t i = 0; i < n; ++i) {
    if (!r.ok()) return std::nullopt;
    OpsSpan s;
    s.name = r.str();
    s.category = r.str();
    s.start = r.i64();
    s.end = r.i64();
    m.spans.push_back(std::move(s));
  }
  if (!r.exhausted()) return std::nullopt;
  return m;
}

Bytes OpsReconfigRequest::encode() const {
  ByteWriter w;
  w.u32(seq);
  w.u8(static_cast<std::uint8_t>(verb));
  w.str(switch_name);
  w.u32(static_cast<std::uint32_t>(table));
  encode_flow_rule(w, rule);
  w.str(cache_id);
  w.str(device_id);
  w.str(target_host);
  w.u8(quarantine);
  w.u32(sample_interval);
  return std::move(w).take();
}

std::optional<OpsReconfigRequest> OpsReconfigRequest::decode(const Bytes& raw) {
  ByteReader r(raw);
  OpsReconfigRequest m;
  m.seq = r.u32();
  const std::uint8_t verb = r.u8();
  if (verb < static_cast<std::uint8_t>(OpsVerb::kInjectRule) ||
      verb > static_cast<std::uint8_t>(OpsVerb::kSetSamplingRate)) {
    return std::nullopt;
  }
  m.verb = static_cast<OpsVerb>(verb);
  m.switch_name = r.str();
  m.table = static_cast<std::int32_t>(r.u32());
  auto rule = decode_flow_rule(r);
  if (!rule) return std::nullopt;
  m.rule = std::move(*rule);
  m.cache_id = r.str();
  m.device_id = r.str();
  m.target_host = r.str();
  m.quarantine = r.u8();
  if (m.quarantine > 1) return std::nullopt;
  m.sample_interval = r.u32();
  if (!r.exhausted()) return std::nullopt;
  return m;
}

Bytes OpsReconfigReply::encode() const {
  ByteWriter w;
  w.u32(seq);
  w.u8(static_cast<std::uint8_t>(verb));
  w.u8(ok ? 1 : 0);
  w.u8(applied ? 1 : 0);
  w.str(detail);
  return std::move(w).take();
}

std::optional<OpsReconfigReply> OpsReconfigReply::decode(const Bytes& raw) {
  ByteReader r(raw);
  OpsReconfigReply m;
  m.seq = r.u32();
  const std::uint8_t verb = r.u8();
  if (verb < static_cast<std::uint8_t>(OpsVerb::kInjectRule) ||
      verb > static_cast<std::uint8_t>(OpsVerb::kSetSamplingRate)) {
    return std::nullopt;
  }
  m.verb = static_cast<OpsVerb>(verb);
  m.ok = r.u8() != 0;
  m.applied = r.u8() != 0;
  m.detail = r.str();
  if (!r.exhausted()) return std::nullopt;
  return m;
}

Bytes OpsTraceDumpRequest::encode() const {
  ByteWriter w;
  w.u32(seq);
  return std::move(w).take();
}

std::optional<OpsTraceDumpRequest> OpsTraceDumpRequest::decode(
    const Bytes& raw) {
  ByteReader r(raw);
  OpsTraceDumpRequest m;
  m.seq = r.u32();
  if (!r.exhausted()) return std::nullopt;
  return m;
}

Bytes OpsTraceDumpReply::encode() const {
  ByteWriter w;
  w.u32(seq);
  w.u32(samples);
  w.str(trace_json);
  return std::move(w).take();
}

std::optional<OpsTraceDumpReply> OpsTraceDumpReply::decode(const Bytes& raw) {
  ByteReader r(raw);
  OpsTraceDumpReply m;
  m.seq = r.u32();
  m.samples = r.u32();
  m.trace_json = r.str();
  if (!r.exhausted()) return std::nullopt;
  return m;
}

namespace {

void encode_alert(ByteWriter& w, const OpsAlert& a) {
  w.str(a.rule);
  w.str(a.metric);
  w.u8(a.firing);
  w.f64(a.value);
  w.f64(a.threshold);
  w.i64(a.since);
  w.u32(a.windows);
}

std::optional<OpsAlert> decode_alert(ByteReader& r) {
  OpsAlert a;
  a.rule = r.str();
  a.metric = r.str();
  a.firing = r.u8();
  a.value = r.f64();
  a.threshold = r.f64();
  a.since = r.i64();
  a.windows = r.u32();
  if (!r.ok() || a.firing > 1 || !std::isfinite(a.value) ||
      !std::isfinite(a.threshold)) {
    return std::nullopt;
  }
  return a;
}

void encode_trace_span(ByteWriter& w, const OpsTraceSpan& ts) {
  w.u64(ts.span_id);
  w.u64(ts.parent_span);
  w.str(ts.name);
  w.str(ts.node);
  w.i64(ts.start);
  w.i64(ts.end);
}

OpsTraceSpan decode_trace_span(ByteReader& r) {
  OpsTraceSpan ts;
  ts.span_id = r.u64();
  ts.parent_span = r.u64();
  ts.name = r.str();
  ts.node = r.str();
  ts.start = r.i64();
  ts.end = r.i64();
  return ts;
}

}  // namespace

Bytes OpsAlertsRequest::encode() const {
  ByteWriter w;
  w.u32(seq);
  return std::move(w).take();
}
std::optional<OpsAlertsRequest> OpsAlertsRequest::decode(const Bytes& raw) {
  ByteReader r(raw);
  OpsAlertsRequest m;
  m.seq = r.u32();
  if (!r.exhausted()) return std::nullopt;
  return m;
}

Bytes OpsAlertsReply::encode() const {
  ByteWriter w;
  w.u32(seq);
  w.i64(barrier_time);
  w.u64(digest);
  w.u16(static_cast<std::uint16_t>(alerts.size()));
  for (const OpsAlert& a : alerts) encode_alert(w, a);
  return std::move(w).take();
}
std::optional<OpsAlertsReply> OpsAlertsReply::decode(const Bytes& raw) {
  ByteReader r(raw);
  OpsAlertsReply m;
  m.seq = r.u32();
  m.barrier_time = r.i64();
  m.digest = r.u64();
  const std::uint16_t n = r.u16();
  for (std::uint16_t i = 0; i < n; ++i) {
    if (!r.ok()) return std::nullopt;
    auto a = decode_alert(r);
    if (!a) return std::nullopt;
    m.alerts.push_back(std::move(*a));
  }
  if (!r.exhausted()) return std::nullopt;
  return m;
}

Bytes OpsTraceRequest::encode() const {
  ByteWriter w;
  w.u32(seq);
  w.str(session);
  return std::move(w).take();
}
std::optional<OpsTraceRequest> OpsTraceRequest::decode(const Bytes& raw) {
  ByteReader r(raw);
  OpsTraceRequest m;
  m.seq = r.u32();
  m.session = r.str();
  if (!r.exhausted()) return std::nullopt;
  return m;
}

Bytes OpsTraceReply::encode() const {
  ByteWriter w;
  w.u32(seq);
  w.u8(found ? 1 : 0);
  w.u64(trace_id);
  w.str(session);
  w.i64(start);
  w.i64(end);
  w.u64(digest);
  w.u16(static_cast<std::uint16_t>(spans.size()));
  for (const OpsTraceSpan& ts : spans) encode_trace_span(w, ts);
  w.u16(static_cast<std::uint16_t>(critical.size()));
  for (const OpsTraceSpan& ts : critical) encode_trace_span(w, ts);
  return std::move(w).take();
}
std::optional<OpsTraceReply> OpsTraceReply::decode(const Bytes& raw) {
  ByteReader r(raw);
  OpsTraceReply m;
  m.seq = r.u32();
  const std::uint8_t found = r.u8();
  if (found > 1) return std::nullopt;
  m.found = found != 0;
  m.trace_id = r.u64();
  m.session = r.str();
  m.start = r.i64();
  m.end = r.i64();
  m.digest = r.u64();
  const std::uint16_t ns = r.u16();
  for (std::uint16_t i = 0; i < ns; ++i) {
    if (!r.ok()) return std::nullopt;
    m.spans.push_back(decode_trace_span(r));
  }
  const std::uint16_t nc = r.u16();
  for (std::uint16_t i = 0; i < nc; ++i) {
    if (!r.ok()) return std::nullopt;
    m.critical.push_back(decode_trace_span(r));
  }
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return m;
}

std::uint64_t ops_snapshot_digest(
    const std::vector<OpsMetricSample>& samples) {
  std::uint64_t d = 0x9E3779B97F4A7C15ull;
  const auto mix_str = [&d](const std::string& s) {
    d = hash_combine_u64(d, s.size());
    for (const char c : s) {
      d = hash_combine_u64(d, static_cast<std::uint8_t>(c));
    }
  };
  for (const OpsMetricSample& s : samples) {
    mix_str(s.name);
    mix_str(s.instance);
    d = hash_combine_u64(d, s.kind);
    d = hash_combine_u64(d, s.counter_value);
    d = hash_combine_u64(d, static_cast<std::uint64_t>(s.gauge_value));
    d = hash_combine_u64(d, s.hist_count);
    d = hash_combine_u64(d, s.hist_sum);
  }
  return d;
}

std::uint64_t ops_alerts_digest(const std::vector<OpsAlert>& alerts) {
  std::uint64_t d = 0x9E3779B97F4A7C15ull;
  const auto mix_str = [&d](const std::string& s) {
    d = hash_combine_u64(d, s.size());
    for (const char c : s) {
      d = hash_combine_u64(d, static_cast<std::uint8_t>(c));
    }
  };
  const auto mix_f64 = [&d](double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    d = hash_combine_u64(d, bits);
  };
  for (const OpsAlert& a : alerts) {
    mix_str(a.rule);
    mix_str(a.metric);
    d = hash_combine_u64(d, a.firing);
    mix_f64(a.value);
    mix_f64(a.threshold);
    d = hash_combine_u64(d, static_cast<std::uint64_t>(a.since));
    d = hash_combine_u64(d, a.windows);
  }
  return d;
}

std::uint64_t ops_trace_digest(std::uint64_t trace_id,
                               const std::string& session, SimTime start,
                               SimTime end,
                               const std::vector<OpsTraceSpan>& spans,
                               const std::vector<OpsTraceSpan>& critical) {
  std::uint64_t d = 0x9E3779B97F4A7C15ull;
  const auto mix_str = [&d](const std::string& s) {
    d = hash_combine_u64(d, s.size());
    for (const char c : s) {
      d = hash_combine_u64(d, static_cast<std::uint8_t>(c));
    }
  };
  const auto mix_span = [&](const OpsTraceSpan& ts) {
    d = hash_combine_u64(d, ts.span_id);
    d = hash_combine_u64(d, ts.parent_span);
    mix_str(ts.name);
    mix_str(ts.node);
    d = hash_combine_u64(d, static_cast<std::uint64_t>(ts.start));
    d = hash_combine_u64(d, static_cast<std::uint64_t>(ts.end));
  };
  d = hash_combine_u64(d, trace_id);
  mix_str(session);
  d = hash_combine_u64(d, static_cast<std::uint64_t>(start));
  d = hash_combine_u64(d, static_cast<std::uint64_t>(end));
  d = hash_combine_u64(d, spans.size());
  for (const OpsTraceSpan& ts : spans) mix_span(ts);
  d = hash_combine_u64(d, critical.size());
  for (const OpsTraceSpan& ts : critical) mix_span(ts);
  return d;
}

Bytes ops_wrap(OpsMsgType type, const Bytes& body) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.blob(body);
  return std::move(w).take();
}

std::optional<std::pair<OpsMsgType, Bytes>> ops_unwrap(const Bytes& payload) {
  ByteReader r(payload);
  const std::uint8_t type = r.u8();
  if (type < static_cast<std::uint8_t>(OpsMsgType::kSnapshotRequest) ||
      type > static_cast<std::uint8_t>(OpsMsgType::kTraceReply)) {
    return std::nullopt;
  }
  Bytes body = r.blob();
  if (!r.ok()) return std::nullopt;
  return std::make_pair(static_cast<OpsMsgType>(type), std::move(body));
}

}  // namespace pvn

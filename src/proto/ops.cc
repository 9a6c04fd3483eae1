#include "proto/ops.h"

#include <cstring>

#include "util/hash.h"

namespace pvn {

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

std::optional<FlowRule> decode_flow_rule(ByteReader& r) {
  FlowRule rule;
  if (!codec::read(r, rule)) return std::nullopt;
  return rule;
}

bool same_rule(const FlowRule& a, const FlowRule& b) {
  return a.priority == b.priority && a.cookie == b.cookie &&
         a.match == b.match && a.actions == b.actions;
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
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return std::make_pair(static_cast<OpsMsgType>(type), std::move(body));
}

}  // namespace pvn

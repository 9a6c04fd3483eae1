#include "pvn/discovery.h"

#include <cmath>

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
    // Bail as soon as the reader overruns: a corrupted count would otherwise
    // spin through up to 64Ki failed reads per list.
    if (!r.ok()) break;
    out.push_back(r.str());
  }
  return out;
}

}  // namespace

const char* to_string(NackCode code) {
  switch (code) {
    case NackCode::kUnspecified: return "unspecified";
    case NackCode::kBusy: return "busy";
    case NackCode::kOutOfMemory: return "out-of-memory";
    case NackCode::kPolicy: return "policy";
    case NackCode::kPayment: return "payment";
    case NackCode::kInvalidPvnc: return "invalid-pvnc";
    case NackCode::kUnavailable: return "unavailable";
  }
  return "?";
}

const char* to_string(OfferDefect defect) {
  switch (defect) {
    case OfferDefect::kNone: return "none";
    case OfferDefect::kPriceNotFinite: return "price-not-finite";
    case OfferDefect::kPriceAbsurd: return "price-absurd";
    case OfferDefect::kExpired: return "expired";
    case OfferDefect::kExpiryTooFar: return "expiry-too-far";
    case OfferDefect::kLeaseTooShort: return "lease-too-short";
    case OfferDefect::kLeaseTooLong: return "lease-too-long";
    case OfferDefect::kCapacityImplausible: return "capacity-implausible";
    case OfferDefect::kInsufficientCapacity: return "insufficient-capacity";
  }
  return "?";
}

OfferDefect vet_offer(const Offer& offer, std::int64_t est_memory_bytes,
                      const OfferBounds& bounds, SimTime now) {
  if (!std::isfinite(offer.total_price) || offer.total_price < 0.0) {
    return OfferDefect::kPriceNotFinite;
  }
  if (offer.total_price > bounds.max_price) return OfferDefect::kPriceAbsurd;
  if (offer.expires_at != 0) {
    if (offer.expires_at <= now) return OfferDefect::kExpired;
    if (offer.expires_at - now > bounds.max_offer_ttl) {
      return OfferDefect::kExpiryTooFar;
    }
  }
  if (offer.lease_duration != 0) {
    if (offer.lease_duration < bounds.min_lease) {
      return OfferDefect::kLeaseTooShort;
    }
    if (offer.lease_duration > bounds.max_lease) {
      return OfferDefect::kLeaseTooLong;
    }
  }
  if (offer.capacity_bytes < 0 ||
      offer.capacity_bytes > bounds.max_capacity_bytes) {
    return OfferDefect::kCapacityImplausible;
  }
  if (bounds.require_capacity && offer.capacity_bytes < est_memory_bytes) {
    return OfferDefect::kInsufficientCapacity;
  }
  return OfferDefect::kNone;
}

Bytes wrap(PvnMsgType type, const Bytes& body,
           const telemetry::TraceContext& trace) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.blob(body);
  telemetry::encode_trace_context(w, trace);
  return std::move(w).take();
}

std::optional<PvnFrame> unwrap_frame(const Bytes& payload) {
  ByteReader r(payload);
  PvnFrame f;
  f.type = static_cast<PvnMsgType>(r.u8());
  f.body = r.blob();
  f.trace = telemetry::decode_trace_context(r);
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return f;
}

Bytes DiscoveryMessage::encode() const {
  ByteWriter w;
  w.u32(seq);
  w.str(device_id);
  encode_strings(w, standards);
  encode_strings(w, modules);
  w.i64(est_memory_bytes);
  return std::move(w).take();
}

std::optional<DiscoveryMessage> DiscoveryMessage::decode(const Bytes& raw) {
  ByteReader r(raw);
  DiscoveryMessage m;
  m.seq = r.u32();
  m.device_id = r.str();
  m.standards = decode_strings(r);
  m.modules = decode_strings(r);
  m.est_memory_bytes = r.i64();
  if (!r.exhausted()) return std::nullopt;
  return m;
}

Bytes Offer::encode() const {
  ByteWriter w;
  w.u32(seq);
  w.u32(deployment_server.v);
  encode_strings(w, standards);
  encode_strings(w, offered_modules);
  w.f64(total_price);
  w.i64(expires_at);
  w.u8(standby_capacity ? 1 : 0);
  w.i64(lease_duration);
  w.i64(capacity_bytes);
  return std::move(w).take();
}

std::optional<Offer> Offer::decode(const Bytes& raw) {
  ByteReader r(raw);
  Offer o;
  o.seq = r.u32();
  o.deployment_server = Ipv4Addr(r.u32());
  o.standards = decode_strings(r);
  o.offered_modules = decode_strings(r);
  o.total_price = r.f64();
  o.expires_at = r.i64();
  o.standby_capacity = r.u8() != 0;
  o.lease_duration = r.i64();
  o.capacity_bytes = r.i64();
  if (!r.exhausted()) return std::nullopt;
  // Structural hardening: field values no honest encoder produces are
  // rejected here; subtler adversarial-but-well-formed values are left to
  // vet_offer so the client can attribute them to the sender.
  if (!std::isfinite(o.total_price)) return std::nullopt;
  if (o.expires_at < 0 || o.lease_duration < 0) return std::nullopt;
  return o;
}

Bytes DeployRequest::encode() const {
  ByteWriter w;
  w.u32(seq);
  w.str(device_id);
  w.blob(pvnc.encode());
  w.str(pvnc_uri);
  w.f64(payment);
  encode_strings(w, required_modules);
  w.u32(handoff_server.v);
  w.str(handoff_chain_id);
  return std::move(w).take();
}

std::optional<DeployRequest> DeployRequest::decode(const Bytes& raw) {
  ByteReader r(raw);
  DeployRequest m;
  m.seq = r.u32();
  m.device_id = r.str();
  const Bytes pvnc_raw = r.blob();
  if (!r.ok()) return std::nullopt;  // don't hand a bogus blob to Pvnc
  const auto pvnc = Pvnc::decode(pvnc_raw);
  if (!pvnc) return std::nullopt;
  m.pvnc = *pvnc;
  m.pvnc_uri = r.str();
  m.payment = r.f64();
  m.required_modules = decode_strings(r);
  m.handoff_server = Ipv4Addr(r.u32());
  m.handoff_chain_id = r.str();
  if (!r.exhausted()) return std::nullopt;
  return m;
}

bool parse_pvnc_uri(const std::string& uri, Ipv4Addr& host,
                    std::string& path) {
  constexpr const char* kScheme = "pvnc://";
  if (uri.rfind(kScheme, 0) != 0) return false;
  const std::string rest = uri.substr(7);
  const auto slash = rest.find('/');
  if (slash == std::string::npos) return false;
  const auto addr = Ipv4Addr::parse(rest.substr(0, slash));
  if (!addr) return false;
  host = *addr;
  path = rest.substr(slash);
  return !path.empty();
}

Bytes DeployAck::encode() const {
  ByteWriter w;
  w.u32(seq);
  w.str(chain_id);
  w.u8(dhcp_refresh ? 1 : 0);
  w.i64(lease_duration);
  w.u8(standby ? 1 : 0);
  w.u8(state_restored ? 1 : 0);
  return std::move(w).take();
}

std::optional<DeployAck> DeployAck::decode(const Bytes& raw) {
  ByteReader r(raw);
  DeployAck m;
  m.seq = r.u32();
  m.chain_id = r.str();
  m.dhcp_refresh = r.u8() != 0;
  m.lease_duration = r.i64();
  m.standby = r.u8() != 0;
  m.state_restored = r.u8() != 0;
  if (!r.exhausted() || m.lease_duration < 0) return std::nullopt;
  return m;
}

Bytes LeaseRenew::encode() const {
  ByteWriter w;
  w.u32(seq);
  w.str(device_id);
  w.str(chain_id);
  return std::move(w).take();
}

std::optional<LeaseRenew> LeaseRenew::decode(const Bytes& raw) {
  ByteReader r(raw);
  LeaseRenew m;
  m.seq = r.u32();
  m.device_id = r.str();
  m.chain_id = r.str();
  if (!r.exhausted()) return std::nullopt;
  return m;
}

Bytes LeaseAck::encode() const {
  ByteWriter w;
  w.u32(seq);
  w.u8(ok ? 1 : 0);
  w.i64(lease_duration);
  encode_strings(w, degraded_modules);
  w.str(reason);
  return std::move(w).take();
}

std::optional<LeaseAck> LeaseAck::decode(const Bytes& raw) {
  ByteReader r(raw);
  LeaseAck m;
  m.seq = r.u32();
  m.ok = r.u8() != 0;
  m.lease_duration = r.i64();
  m.degraded_modules = decode_strings(r);
  m.reason = r.str();
  if (!r.exhausted() || m.lease_duration < 0) return std::nullopt;
  return m;
}

Bytes DeployNack::encode() const {
  ByteWriter w;
  w.u32(seq);
  w.str(reason);
  w.u8(static_cast<std::uint8_t>(code));
  w.i64(retry_after);
  return std::move(w).take();
}

std::optional<DeployNack> DeployNack::decode(const Bytes& raw) {
  ByteReader r(raw);
  DeployNack m;
  m.seq = r.u32();
  m.reason = r.str();
  const std::uint8_t code = r.u8();
  m.retry_after = r.i64();
  if (!r.exhausted()) return std::nullopt;
  if (code > static_cast<std::uint8_t>(NackCode::kUnavailable)) {
    return std::nullopt;
  }
  m.code = static_cast<NackCode>(code);
  if (m.retry_after < 0) return std::nullopt;
  return m;
}

Bytes Teardown::encode() const {
  ByteWriter w;
  w.str(device_id);
  return std::move(w).take();
}

std::optional<Teardown> Teardown::decode(const Bytes& raw) {
  ByteReader r(raw);
  Teardown m;
  m.device_id = r.str();
  if (!r.exhausted()) return std::nullopt;
  return m;
}

Bytes StateRequest::encode() const {
  ByteWriter w;
  w.u32(seq);
  w.str(device_id);
  w.str(chain_id);
  return std::move(w).take();
}

std::optional<StateRequest> StateRequest::decode(const Bytes& raw) {
  ByteReader r(raw);
  StateRequest m;
  m.seq = r.u32();
  m.device_id = r.str();
  m.chain_id = r.str();
  if (!r.exhausted()) return std::nullopt;
  return m;
}

Bytes StateTransfer::encode() const {
  ByteWriter w;
  w.u32(seq);
  w.str(device_id);
  w.str(chain_id);
  w.u8(ok ? 1 : 0);
  w.blob(checkpoint);
  return std::move(w).take();
}

std::optional<StateTransfer> StateTransfer::decode(const Bytes& raw) {
  ByteReader r(raw);
  StateTransfer m;
  m.seq = r.u32();
  m.device_id = r.str();
  m.chain_id = r.str();
  m.ok = r.u8() != 0;
  m.checkpoint = r.blob();
  if (!r.exhausted()) return std::nullopt;
  return m;
}

Bytes StateAck::encode() const {
  ByteWriter w;
  w.u32(seq);
  w.str(device_id);
  w.str(chain_id);
  w.u8(applied ? 1 : 0);
  w.blob(digest);
  return std::move(w).take();
}

std::optional<StateAck> StateAck::decode(const Bytes& raw) {
  ByteReader r(raw);
  StateAck m;
  m.seq = r.u32();
  m.device_id = r.str();
  m.chain_id = r.str();
  m.applied = r.u8() != 0;
  m.digest = r.blob();
  if (!r.exhausted()) return std::nullopt;
  return m;
}

}  // namespace pvn

#include "pvn/discovery.h"

#include <cmath>

namespace pvn {

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

}  // namespace pvn

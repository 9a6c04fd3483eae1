// PVNC — Personal Virtual Network Configuration (paper §3.1).
//
// A PVNC names the middlebox chain the user wants interposed on their
// traffic and the per-flow policies that apply to it. Users author PVNCs in
// a small text format (pvnc_parser.h); the compiler (compiler.h) lowers a
// PVNC to SDN flow rules + middlebox instantiations for a concrete
// deployment point.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sdn/match.h"
#include "util/codec.h"
#include "util/units.h"

namespace pvn {

class PvnStore;

struct PvncModule {
  std::string store_name;  // module name in the PVN Store
  std::map<std::string, std::string> params;

  template <class F> void fields(F& f) {  // util/codec.h
    f(store_name);
    f.list16(params, "params");
  }
  bool operator==(const PvncModule&) const = default;
};

struct PvncPolicy {
  enum class Kind {
    kDrop,       // drop matching traffic
    kRateLimit,  // police matching traffic to `rate`
    kMark,       // set DSCP on matching traffic
    kTunnel,     // encapsulate matching traffic toward `gateway` (Fig. 1c)
  };

  Kind kind = Kind::kDrop;
  FlowMatch match;
  Rate rate;            // kRateLimit
  std::uint8_t tos = 0; // kMark
  Ipv4Addr gateway;     // kTunnel
  int priority = 100;

  template <class F> void fields(F& f) {  // util/codec.h
    f(kind);
    pvnc_match_fields(f, match);
    f(rate.bits_per_second, tos, gateway, priority);
  }
  bool operator==(const PvncPolicy&) const = default;
};
constexpr bool wire_valid(PvncPolicy::Kind k) {
  return k <= PvncPolicy::Kind::kTunnel;
}

// Serialized for carrying PVNCs in deployment requests and cloud URIs.
struct Pvnc : codec::Message<Pvnc> {
  std::string name;  // e.g. "alice-phone"
  std::vector<PvncModule> chain;      // ordered middlebox chain
  std::vector<PvncPolicy> policies;

  std::vector<std::string> module_names() const;
  // Resource estimate carried in discovery messages (paper: "an estimate of
  // the network and computational resources requested").
  std::int64_t est_memory_bytes() const;

  template <class F> void fields(F& f) {
    f(name);
    f.list16(chain, "chain");
    f.list16(policies, "policies");
  }
  bool operator==(const Pvnc&) const = default;
};

// Structural validation independent of any deployment target.
// Returns an empty vector when valid; otherwise human-readable problems.
std::vector<std::string> validate_pvnc(const Pvnc& pvnc, const PvnStore* store);

// Returns a copy of `pvnc` restricted to the modules in `allowed` —
// the "subset of the original configuration" flows in discovery (§3.1).
Pvnc restrict_to_modules(const Pvnc& pvnc,
                         const std::vector<std::string>& allowed);

}  // namespace pvn

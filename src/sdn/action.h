// Actions a flow rule can apply, executed in order. The subset of OpenFlow
// the PVNC compiler needs, plus a middlebox-diversion action (the paper's
// software middleboxes interpose via redirect-to-mbox).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "netsim/addr.h"

namespace pvn {

// Forward the packet out a switch port.
struct ActOutput {
  int port = 0;
  template <class F> void fields(F& f) { f(port); }
  bool operator==(const ActOutput&) const = default;
};

// Drop the packet (explicit; table-miss behaviour is configured separately).
struct ActDrop {
  template <class F> void fields(F&) {}
  bool operator==(const ActDrop&) const = default;
};

// Rewrite the DSCP/class byte (used to mark classified traffic).
struct ActSetTos {
  std::uint8_t tos = 0;
  template <class F> void fields(F& f) { f(tos); }
  bool operator==(const ActSetTos&) const = default;
};

// Rewrite the destination address (redirection to proxies / gateways).
struct ActSetDst {
  Ipv4Addr dst;
  template <class F> void fields(F& f) { f(dst); }
  bool operator==(const ActSetDst&) const = default;
};

// Divert through a registered middlebox chain, then continue the action list
// with whatever packets the chain emits.
struct ActMbox {
  std::string chain_id;
  template <class F> void fields(F& f) { f(chain_id); }
  bool operator==(const ActMbox&) const = default;
};

// Pass through a token-bucket meter; non-conforming packets are dropped
// (shaping/throttling, e.g. the Binge On 1.5 Mbps policer).
struct ActMeter {
  std::string meter_id;
  template <class F> void fields(F& f) { f(meter_id); }
  bool operator==(const ActMeter&) const = default;
};

// Continue matching in a later table of the pipeline.
struct ActGotoTable {
  int table = 0;
  template <class F> void fields(F& f) { f(table); }
  bool operator==(const ActGotoTable&) const = default;
};

// Encapsulate toward a tunnel gateway (used for selective redirection,
// Fig. 1c). The switch delegates to a registered tunnel encapsulator.
struct ActTunnel {
  Ipv4Addr gateway;
  template <class F> void fields(F& f) { f(gateway); }
  bool operator==(const ActTunnel&) const = default;
};

// On the wire (util/codec.h) an action is its variant index + 1 in one
// byte, then the alternative's fields.
using Action = std::variant<ActOutput, ActDrop, ActSetTos, ActSetDst, ActMbox,
                            ActMeter, ActGotoTable, ActTunnel>;
using ActionList = std::vector<Action>;

}  // namespace pvn

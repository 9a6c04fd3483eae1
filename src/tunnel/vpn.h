// VPN tunnel endpoints.
//
//   TunnelIngress — a bump-in-the-wire node on the client's path that
//     encapsulates matching traffic toward a remote VpnGateway. Also usable
//     as the SdnSwitch's ActTunnel encapsulator.
//   VpnGateway — terminates tunnels in a remote/cloud network: decapsulates,
//     source-NATs the inner packet so replies return to the gateway, and
//     re-encapsulates replies back to the client.
//   DeviceTunnel — a host-resident tunnel endpoint the PVN client enables as
//     a fallback when the network's PVN fails (§3.3): hooks into Host's
//     outbound/ESP paths instead of sitting on the wire.
#pragma once

#include <functional>
#include <map>

#include "netsim/network.h"
#include "netsim/node.h"
#include "proto/host.h"
#include "proto/l4.h"
#include "sdn/switch.h"
#include "telemetry/metrics.h"
#include "tunnel/esp.h"

namespace pvn {

// Predicate selecting which packets get tunneled (selective redirection,
// Fig. 1c). Default: everything.
using TunnelSelector = std::function<bool(const Packet&)>;

class TunnelIngress : public Node {
 public:
  // Port 0 faces the client side, port 1 faces the WAN.
  TunnelIngress(Network& net, std::string name, Ipv4Addr self,
                Ipv4Addr gateway, Bytes key);

  void set_selector(TunnelSelector selector) { selector_ = std::move(selector); }

  void handle_packet(Packet pkt, int in_port) override;

  std::uint64_t tunneled() const { return tunneled_.value(); }
  std::uint64_t bypassed() const { return bypassed_.value(); }

 private:
  Ipv4Addr self_;
  Ipv4Addr gateway_;
  Bytes key_;
  std::uint32_t seq_ = 0;
  TunnelSelector selector_;
  telemetry::Tally tunneled_;
  telemetry::Tally bypassed_;
};

// Switch-side tunnel termination: a PacketProcessor that decapsulates
// returning ESP traffic (from a VpnGateway) back into the inner packet so
// the dataplane can forward it to the device. Registered on the SdnSwitch
// and targeted by an infrastructure rule matching proto=esp.
class EspDecapProcessor : public PacketProcessor {
 public:
  explicit EspDecapProcessor(Bytes key) : key_(std::move(key)) {}

  std::vector<Packet> process(Packet pkt, SimTime now,
                              SimDuration& delay) override {
    (void)now;
    delay = 0;
    std::vector<Packet> out;
    if (auto inner = esp_decap(std::move(pkt), key_)) {
      out.push_back(std::move(*inner));
    } else {
      ++auth_failures_;
    }
    return out;
  }

  std::uint64_t auth_failures() const { return auth_failures_; }

 private:
  Bytes key_;
  std::uint64_t auth_failures_ = 0;
};

// Host-resident fallback tunnel. Installed once on a Host; while active,
// outbound packets matching the selector are ESP-encapsulated toward a
// VpnGateway and returning ESP is decapsulated back into the receive path.
// Control traffic (PVN discovery/deploy on kPvnPort, DHCP) always bypasses
// the tunnel so the client can renegotiate with the local network while the
// fallback carries data traffic.
class DeviceTunnel {
 public:
  DeviceTunnel(Host& host, Ipv4Addr gateway, Bytes key);
  ~DeviceTunnel();

  DeviceTunnel(const DeviceTunnel&) = delete;
  DeviceTunnel& operator=(const DeviceTunnel&) = delete;

  void enable();
  void disable();
  bool active() const { return active_; }

  // Restricts which packets get tunneled while active (selective
  // redirection); control-port traffic bypasses regardless.
  void set_selector(TunnelSelector selector) { selector_ = std::move(selector); }

  std::uint64_t tunneled() const { return tunneled_.value(); }
  std::uint64_t bypassed() const { return bypassed_.value(); }
  std::uint64_t decapsulated() const { return decap_.value(); }
  std::uint64_t auth_failures() const { return auth_fail_.value(); }

 private:
  bool is_control(const Packet& pkt) const;

  Host* host_;
  Ipv4Addr gateway_;
  Bytes key_;
  bool active_ = false;
  std::uint32_t seq_ = 0;
  TunnelSelector selector_;
  telemetry::Tally tunneled_{"tunnel.device.tunneled"};
  telemetry::Tally bypassed_{"tunnel.device.bypassed"};
  telemetry::Tally decap_{"tunnel.device.decapsulated"};
  telemetry::Tally auth_fail_{"tunnel.device.auth_failures"};
};

class VpnGateway : public Node {
 public:
  // Port 0 faces the Internet (both tunnel ingress and servers reach it
  // through this port in our topologies).
  VpnGateway(Network& net, std::string name, Ipv4Addr addr, Bytes key);

  void handle_packet(Packet pkt, int in_port) override;

  std::uint64_t decapsulated() const { return decap_.value(); }
  std::uint64_t reencapsulated() const { return reencap_.value(); }
  std::uint64_t auth_failures() const { return auth_fail_.value(); }

 private:
  struct NatKey {
    Ipv4Addr remote;
    Port remote_port = 0;
    Port local_port = 0;
    std::uint8_t proto = 0;
    auto operator<=>(const NatKey&) const = default;
  };

  Ipv4Addr addr_;
  Bytes key_;
  std::map<NatKey, Ipv4Addr> nat_;          // reply -> original client addr
  std::map<Ipv4Addr, Ipv4Addr> client_via_; // client addr -> tunnel outer src
  std::uint32_t seq_ = 0;
  telemetry::Tally decap_;
  telemetry::Tally reencap_;
  telemetry::Tally auth_fail_;
};

}  // namespace pvn

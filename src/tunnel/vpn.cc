#include "tunnel/vpn.h"

namespace pvn {

TunnelIngress::TunnelIngress(Network& net, std::string name, Ipv4Addr self,
                             Ipv4Addr gateway, Bytes key)
    : Node(net, std::move(name)),
      self_(self),
      gateway_(gateway),
      key_(std::move(key)),
      selector_([](const Packet&) { return true; }),
      tunneled_("tunnel.ingress.tunneled", this->name()),
      bypassed_("tunnel.ingress.bypassed", this->name()) {}

void TunnelIngress::handle_packet(Packet pkt, int in_port) {
  if (in_port == 0) {
    // Client -> WAN.
    if (selector_(pkt)) {
      tunneled_.inc();
      send(1, esp_encap(std::move(pkt), self_, gateway_, key_, /*spi=*/1,
                        ++seq_));
    } else {
      bypassed_.inc();
      send(1, std::move(pkt));
    }
    return;
  }
  // WAN -> client.
  if (pkt.ip.proto == IpProto::kEsp && pkt.ip.dst == self_) {
    if (auto inner = esp_decap(std::move(pkt), key_)) {
      send(0, std::move(*inner));
    }
    return;
  }
  send(0, std::move(pkt));
}

namespace {

// Ports whose traffic must reach the local network directly even while the
// fallback tunnel is active: PVN discovery/deploy (pvn/discovery.h kPvnPort;
// duplicated here so tunnel/ stays below pvn/ in the layering) and DHCP.
constexpr Port kControlPorts[] = {3030, 67, 68};

bool is_control_port(Port p) {
  for (const Port c : kControlPorts) {
    if (p == c) return true;
  }
  return false;
}

}  // namespace

DeviceTunnel::DeviceTunnel(Host& host, Ipv4Addr gateway, Bytes key)
    : host_(&host),
      gateway_(gateway),
      key_(std::move(key)),
      selector_([](const Packet&) { return true; }) {
  host_->set_esp_handler([this](const Packet& outer) -> std::optional<Packet> {
    if (!active_ || outer.ip.src != gateway_) return std::nullopt;
    auto inner = esp_decap(outer, key_);
    if (!inner) {
      auth_fail_.inc();
      return std::nullopt;
    }
    decap_.inc();
    return inner;
  });
  host_->set_outbound_transform([this](Packet pkt) {
    if (!active_ || pkt.ip.proto == IpProto::kEsp || is_control(pkt) ||
        !selector_(pkt)) {
      if (active_) {
        bypassed_.inc();
      }
      return pkt;
    }
    tunneled_.inc();
    return esp_encap(std::move(pkt), host_->addr(), gateway_, key_, /*spi=*/1,
                     ++seq_);
  });
}

DeviceTunnel::~DeviceTunnel() {
  host_->set_outbound_transform(nullptr);
  host_->set_esp_handler(nullptr);
}

void DeviceTunnel::enable() { active_ = true; }

void DeviceTunnel::disable() { active_ = false; }

bool DeviceTunnel::is_control(const Packet& pkt) const {
  if (pkt.ip.proto != IpProto::kUdp) return false;
  Port sport = 0, dport = 0;
  peek_ports(static_cast<std::uint8_t>(pkt.ip.proto), pkt.l4, sport, dport);
  return is_control_port(sport) || is_control_port(dport);
}

VpnGateway::VpnGateway(Network& net, std::string name, Ipv4Addr addr,
                       Bytes key)
    : Node(net, std::move(name)),
      addr_(addr),
      key_(std::move(key)),
      decap_("tunnel.gateway.decapsulated", this->name()),
      reencap_("tunnel.gateway.reencapsulated", this->name()),
      auth_fail_("tunnel.gateway.auth_failures", this->name()) {}

void VpnGateway::handle_packet(Packet pkt, int in_port) {
  (void)in_port;
  if (pkt.ip.proto == IpProto::kEsp && pkt.ip.dst == addr_) {
    const Ipv4Addr outer_src = pkt.ip.src;
    auto inner = esp_decap(std::move(pkt), key_);
    if (!inner) {
      auth_fail_.inc();
      return;
    }
    decap_.inc();
    // Source-NAT so replies come back to this gateway.
    Port sport = 0, dport = 0;
    peek_ports(static_cast<std::uint8_t>(inner->ip.proto), inner->l4, sport,
               dport);
    nat_[NatKey{inner->ip.dst, dport, sport,
                static_cast<std::uint8_t>(inner->ip.proto)}] = inner->ip.src;
    client_via_[inner->ip.src] = outer_src;
    inner->ip.src = addr_;
    send(0, std::move(*inner));
    return;
  }

  if (pkt.ip.dst == addr_) {
    // A reply to a NAT'd flow: map back and re-encapsulate to the client.
    Port sport = 0, dport = 0;
    peek_ports(static_cast<std::uint8_t>(pkt.ip.proto), pkt.l4, sport, dport);
    const auto it = nat_.find(NatKey{pkt.ip.src, sport, dport,
                                     static_cast<std::uint8_t>(pkt.ip.proto)});
    if (it == nat_.end()) return;
    const Ipv4Addr client = it->second;
    const auto via = client_via_.find(client);
    if (via == client_via_.end()) return;
    reencap_.inc();
    pkt.ip.dst = client;
    send(0, esp_encap(std::move(pkt), addr_, via->second, key_, /*spi=*/1,
                      ++seq_));
    return;
  }
}

}  // namespace pvn

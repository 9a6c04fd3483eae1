#include "proto/host.h"

namespace pvn {

Host::Host(Network& net, std::string name, Ipv4Addr addr)
    : Node(net, std::move(name)), addr_(addr) {}

Host::~Host() = default;

void Host::handle_foreign_packet(Packet pkt, int in_port) {
  (void)pkt;
  (void)in_port;
  ++not_for_me_;
}

void Host::handle_packet(Packet pkt, int in_port) {
  // Anycast packets (PVN discovery floods) are delivered locally too.
  if (pkt.ip.dst != addr_ && pkt.ip.dst != kPvnAnycast) {
    handle_foreign_packet(std::move(pkt), in_port);
    return;
  }
  switch (pkt.ip.proto) {
    case IpProto::kTcp:
      on_tcp(pkt.ip, pkt.l4);
      break;
    case IpProto::kUdp:
      on_udp(pkt.ip, pkt.l4);
      break;
    case IpProto::kEsp:
      // A device-side tunnel endpoint (tunnel/vpn.h): decapsulated inner
      // packets re-enter the receive path as if they arrived directly.
      if (esp_handler_) {
        if (auto inner = esp_handler_(pkt)) {
          handle_packet(std::move(*inner), in_port);
        }
      }
      break;
    default:
      // ICMP handled by subclasses (VPN gateways override handle_packet).
      break;
  }
}

void Host::send_ip(Ipv4Addr dst, IpProto proto, Bytes l4, std::uint8_t tos,
                   std::uint64_t trace_id) {
  Packet pkt = network().make_packet(addr_, dst, proto, std::move(l4));
  pkt.ip.tos = tos;
  pkt.trace_id = trace_id;
  if (outbound_transform_) pkt = outbound_transform_(std::move(pkt));
  send(uplink_, std::move(pkt));
}

void Host::bind_udp(Port port, UdpHandler handler) {
  udp_handlers_[port] = std::move(handler);
}

void Host::unbind_udp(Port port) { udp_handlers_.erase(port); }

void Host::send_udp(Ipv4Addr dst, Port src_port, Port dst_port, Bytes payload,
                    std::uint8_t tos, std::uint64_t trace_id) {
  UdpHeader hdr;
  hdr.src_port = src_port;
  hdr.dst_port = dst_port;
  send_ip(dst, IpProto::kUdp, serialize_udp(hdr, payload), tos, trace_id);
}

void Host::on_udp(const IpHeader& ip, const Bytes& l4) {
  const auto dg = parse_udp(l4);
  if (!dg) return;
  const auto it = udp_handlers_.find(dg->hdr.dst_port);
  if (it == udp_handlers_.end()) return;
  it->second(ip.src, dg->hdr.src_port, dg->hdr.dst_port, dg->payload);
}

Port Host::alloc_ephemeral_port() {
  // Probe from the cursor, wrapping 65535 -> 49152, for a port no open
  // connection holds.
  for (int i = 0; i < 16384; ++i) {
    const Port p = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ == 65535 ? 49152 : next_ephemeral_ + 1;
    if (!port_in_use(p)) return p;
  }
  return 0;
}

bool Host::port_in_use(Port port) const {
  for (auto it = conns_.lower_bound(ConnKey{port, 0, 0});
       it != conns_.end() && std::get<0>(it->first) == port; ++it) {
    if (it->second->state() != TcpConnection::State::kClosed) return true;
  }
  return false;
}

TcpConnection& Host::tcp_connect(Ipv4Addr dst, Port dst_port, TcpConfig cfg) {
  const Port lport = alloc_ephemeral_port();
  auto conn = std::unique_ptr<TcpConnection>(
      new TcpConnection(*this, dst, dst_port, lport, cfg));
  TcpConnection& ref = *conn;
  conns_[ConnKey{lport, dst.v, dst_port}] = std::move(conn);
  ref.start_connect();
  return ref;
}

void Host::tcp_listen(Port port, AcceptHandler handler, TcpConfig cfg) {
  listeners_[port] = Listener{std::move(handler), cfg};
}

void Host::tcp_unlisten(Port port) { listeners_.erase(port); }

std::size_t Host::gc_closed() {
  std::size_t n = 0;
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->second->state() == TcpConnection::State::kClosed) {
      it = conns_.erase(it);
      ++n;
    } else {
      ++it;
    }
  }
  return n;
}

void Host::send_rst(const IpHeader& ip, const TcpHeader& hdr) {
  TcpHeader rst;
  rst.src_port = hdr.dst_port;
  rst.dst_port = hdr.src_port;
  rst.seq = hdr.ack;
  rst.ack = hdr.seq + 1;
  rst.flags = kTcpRst | kTcpAck;
  ++rsts_sent_;
  send_ip(ip.src, IpProto::kTcp, serialize_tcp(rst, {}));
}

void Host::on_tcp(const IpHeader& ip, const Bytes& l4) {
  auto seg = parse_tcp(l4);
  if (!seg) return;
  const ConnKey key{seg->hdr.dst_port, ip.src.v, seg->hdr.src_port};
  auto it = conns_.find(key);
  if (it != conns_.end() &&
      it->second->state() != TcpConnection::State::kClosed) {
    it->second->on_segment(ip, std::move(*seg));
    return;
  }

  if (seg->hdr.syn() && !seg->hdr.ack_flag()) {
    const auto lit = listeners_.find(seg->hdr.dst_port);
    if (lit == listeners_.end()) {
      send_rst(ip, seg->hdr);
      return;
    }
    auto conn = std::unique_ptr<TcpConnection>(new TcpConnection(
        *this, ip.src, seg->hdr.src_port, seg->hdr.dst_port, lit->second.cfg));
    TcpConnection& ref = *conn;
    conns_[key] = std::move(conn);  // replaces a closed stale entry if any
    lit->second.handler(ref);       // app installs callbacks
    ref.start_accept(seg->hdr);
    return;
  }

  if (!seg->hdr.rst()) send_rst(ip, seg->hdr);
}

}  // namespace pvn

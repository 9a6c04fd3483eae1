// An end host: a Node with an IP address, a UDP port demultiplexer, and a
// TCP-lite stack (see proto/tcp.h). Hosts have a single uplink (port 0) by
// default; multihomed nodes (Fig. 1c scenarios) can retarget the uplink.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "netsim/network.h"
#include "netsim/node.h"
#include "proto/tcp.h"

namespace pvn {

class Host : public Node {
 public:
  using UdpHandler =
      std::function<void(Ipv4Addr src, Port src_port, Port dst_port, const Bytes&)>;
  using AcceptHandler = std::function<void(TcpConnection&)>;

  Host(Network& net, std::string name, Ipv4Addr addr);
  ~Host() override;

  Ipv4Addr addr() const { return addr_; }
  // Re-addresses the host (DHCP refresh after a PVN deployment, §3.1).
  void set_addr(Ipv4Addr addr) { addr_ = addr; }

  // Which port outbound IP traffic leaves through (default 0).
  void set_uplink(int port) { uplink_ = port; }
  int uplink() const { return uplink_; }

  void handle_packet(Packet pkt, int in_port) override;

  // --- raw IP ---
  // `trace_id` stamps the packet's out-of-band causal-trace id (netsim
  // instrumentation; 0 = untraced) so flight-recorder samples of control
  // traffic can be joined to the stitched trace that sent them.
  void send_ip(Ipv4Addr dst, IpProto proto, Bytes l4, std::uint8_t tos = 0,
               std::uint64_t trace_id = 0);

  // --- tunnel hooks (tunnel/vpn.h DeviceTunnel) ---
  // Applied to every outbound IP packet just before transmission; lets a
  // device-side VPN encapsulate traffic when the network's PVN is down.
  using OutboundTransform = std::function<Packet(Packet)>;
  void set_outbound_transform(OutboundTransform t) {
    outbound_transform_ = std::move(t);
  }
  // Invoked for inbound ESP addressed to this host. A returned packet (the
  // decapsulated inner datagram) re-enters the receive path.
  using EspHandler = std::function<std::optional<Packet>(const Packet&)>;
  void set_esp_handler(EspHandler h) { esp_handler_ = std::move(h); }

  // --- UDP ---
  void bind_udp(Port port, UdpHandler handler);
  void unbind_udp(Port port);
  void send_udp(Ipv4Addr dst, Port src_port, Port dst_port, Bytes payload,
                std::uint8_t tos = 0, std::uint64_t trace_id = 0);

  // --- TCP ---
  // Initiates a connection; returns a reference owned by this Host. The
  // reference stays valid until gc_closed() is called after it closes.
  TcpConnection& tcp_connect(Ipv4Addr dst, Port dst_port, TcpConfig cfg = {});
  // Accepts connections on `port`; the handler runs at SYN time so the app
  // can install callbacks before the handshake completes.
  void tcp_listen(Port port, AcceptHandler handler, TcpConfig cfg = {});
  void tcp_unlisten(Port port);

  // Frees connections that have fully closed. Invalidates their references.
  std::size_t gc_closed();

  std::uint64_t not_for_me_drops() const { return not_for_me_; }
  std::uint64_t rsts_sent() const { return rsts_sent_; }

  // Hook invoked for every packet this host receives that is not addressed
  // to it (used by gateway-ish subclasses); default drops.
  virtual void handle_foreign_packet(Packet pkt, int in_port);

 private:
  friend class TcpConnection;

  using ConnKey = std::tuple<Port, std::uint32_t, Port>;  // lport, raddr, rport

  Port alloc_ephemeral_port();
  // Whether a connection that is not kClosed holds local `port`. conns_ is
  // keyed by local port first, so this walks only that port's entries.
  bool port_in_use(Port port) const;
  void on_tcp(const IpHeader& ip, const Bytes& l4);
  void on_udp(const IpHeader& ip, const Bytes& l4);
  void send_rst(const IpHeader& ip, const TcpHeader& hdr);

  Ipv4Addr addr_;
  int uplink_ = 0;
  OutboundTransform outbound_transform_;
  EspHandler esp_handler_;
  Port next_ephemeral_ = 49152;
  std::map<Port, UdpHandler> udp_handlers_;
  struct Listener {
    AcceptHandler handler;
    TcpConfig cfg;
  };
  std::map<Port, Listener> listeners_;
  std::map<ConnKey, std::unique_ptr<TcpConnection>> conns_;
  std::uint64_t not_for_me_ = 0;
  std::uint64_t rsts_sent_ = 0;
};

}  // namespace pvn

// DHCP-lite: address assignment with an options field that carries the PVN
// support advertisement (paper §3.1: discovery "could be done during DHCP
// negotiation"). Option 224 announces the PVN deployment server's address.
//
// The protocol also supports the post-deployment "DHCP refresh to obtain the
// new addresses" the paper describes after a PVNC is installed.
#pragma once

#include <functional>
#include <map>

#include "proto/host.h"
#include "util/codec.h"

namespace pvn {

constexpr Port kDhcpServerPort = 67;
constexpr Port kDhcpClientPort = 68;

// Option carrying the PVN deployment server IPv4 address (4 bytes).
constexpr std::uint8_t kDhcpOptPvnServer = 224;
// Option carrying the supported PVNC standards as a comma-separated string.
constexpr std::uint8_t kDhcpOptPvnStandards = 225;

enum class DhcpType : std::uint8_t {
  kDiscover = 1,
  kOffer = 2,
  kRequest = 3,
  kAck = 4,
  kNak = 5,
};
constexpr bool wire_valid(DhcpType t) {
  return t >= DhcpType::kDiscover && t <= DhcpType::kNak;
}

struct DhcpMessage : codec::Message<DhcpMessage> {
  DhcpType type = DhcpType::kDiscover;
  std::uint32_t xid = 0;          // transaction id
  std::uint64_t client_id = 0;    // stands in for the MAC address
  Ipv4Addr offered;               // OFFER/REQUEST/ACK
  std::map<std::uint8_t, Bytes> options;

  template <class F> void fields(F& f) {  // util/codec.h
    f(type, xid, client_id, offered);
    f.list16(options, "options");
  }
};

// Address pool server; optionally advertises PVN support in its offers.
class DhcpServer {
 public:
  DhcpServer(Host& host, Ipv4Addr pool_start, int pool_size);

  // Enables the PVN-support option in OFFER/ACK messages.
  void advertise_pvn(Ipv4Addr deployment_server, std::string standards);

  std::uint64_t leases_granted() const { return leases_; }

 private:
  void on_message(Ipv4Addr src, const Bytes& payload);

  Host* host_;
  Ipv4Addr pool_start_;
  int pool_size_;
  int next_offset_ = 0;
  std::map<std::uint64_t, Ipv4Addr> leases_by_client_;
  bool pvn_enabled_ = false;
  Ipv4Addr pvn_server_;
  std::string pvn_standards_;
  std::uint64_t leases_ = 0;
};

// Outcome of a DHCP exchange, including any PVN advertisement discovered.
struct DhcpLease {
  bool ok = false;
  Ipv4Addr addr;
  bool pvn_supported = false;
  Ipv4Addr pvn_server;
  std::string pvn_standards;
};

class DhcpClient {
 public:
  explicit DhcpClient(Host& host);

  using Callback = std::function<void(const DhcpLease&)>;

  // Runs DISCOVER -> OFFER -> REQUEST -> ACK against `server`. On success
  // the host's address is updated to the leased address.
  void acquire(Ipv4Addr server, Callback cb,
               SimDuration timeout = seconds(3));

 private:
  void on_message(const Bytes& payload);
  void finish(const DhcpLease& lease);

  Host* host_;
  Ipv4Addr server_;
  std::uint32_t xid_ = 0;
  Callback cb_;
  EventId timeout_event_ = kInvalidEventId;
  bool in_progress_ = false;
};

}  // namespace pvn

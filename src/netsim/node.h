// Base class for everything attached to the simulated network.
//
// A Node owns a set of numbered ports; the Network wires ports to Links.
// Subclasses (hosts, routers, SDN switches, middlebox hosts, VPN gateways)
// implement handle_packet() and transmit with send().
#pragma once

#include <string>
#include <vector>

#include "netsim/packet.h"
#include "util/log.h"
#include "util/sim.h"

namespace pvn {

class Link;
class Network;

class Node {
 public:
  Node(Network& net, std::string name);
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // Invoked by a Link when a packet arrives on `in_port`.
  virtual void handle_packet(Packet pkt, int in_port) = 0;

  const std::string& name() const { return name_; }
  // Interned id of name() in network().names(); assigned at registration.
  std::uint32_t name_id() const { return name_id_; }
  Network& network() { return *net_; }
  // network().sim(), cached at construction.
  Simulator& sim() { return *sim_; }
  const Simulator& sim() const { return *sim_; }

  // Crash/restart state (driven by netsim/faults.h). A down node neither
  // sends nor receives: Links drop deliveries to it and send() discards.
  bool is_up() const { return up_; }
  void set_up(bool up) { up_ = up; }
  std::uint64_t dropped_while_down() const { return down_drops_; }

  int port_count() const { return static_cast<int>(ports_.size()); }
  // The link attached to `port`, or nullptr if the port is unwired.
  Link* port_link(int port) const;

  // Queues `pkt` for transmission on `port`. Appends this node to the
  // packet's hop trace. Packets sent to unwired ports are counted and
  // dropped.
  void send(int port, Packet pkt);

  std::uint64_t dropped_on_unwired_port() const { return unwired_drops_; }

 protected:
  Logger& log() { return log_; }

 private:
  friend class Network;
  friend class Link;
  int attach_link(Link* link);  // returns the new port number

  Network* net_;
  Simulator* sim_;
  std::string name_;
  std::uint32_t name_id_ = 0;
  std::vector<Link*> ports_;
  bool up_ = true;
  std::uint64_t unwired_drops_ = 0;
  std::uint64_t down_drops_ = 0;
  Logger log_;
};

}  // namespace pvn

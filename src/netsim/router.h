// Classic longest-prefix-match IP router.
//
// Used for the non-SDN parts of topologies (wide-area paths, cloud
// backbones). The access-network dataplane that PVNs program is the SDN
// Switch in src/sdn; Router is the dumb substrate around it.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "netsim/network.h"
#include "netsim/node.h"

namespace pvn {

class Router : public Node {
 public:
  Router(Network& net, std::string name);

  // Adds a route: packets matching `prefix` leave via `port`. Among routes
  // of equal prefix length covering the same addresses, the first added
  // wins. O(1) amortized.
  void add_route(Prefix prefix, int port);
  // Removes the first-added route equal to `prefix`; the next one covering
  // the same addresses (if any) takes its place.
  bool remove_route(const Prefix& prefix);

  // Limited anycast flooding (paper §3.1: discovery "can span multiple
  // providers using limited flooding, e.g., via special anycast
  // addresses"). Packets addressed to kPvnAnycast are replicated out every
  // registered anycast port except the one they arrived on; TTL bounds the
  // flood radius.
  void add_anycast_port(int port);

  // Longest-prefix match; returns -1 if no route. One hash probe per
  // distinct prefix length, longest first; a length <= 0 matches everything.
  int route_for(Ipv4Addr dst) const;

  void handle_packet(Packet pkt, int in_port) override;

  std::uint64_t no_route_drops() const { return no_route_drops_; }
  std::uint64_t ttl_drops() const { return ttl_drops_; }

 private:
  struct Route {
    Ipv4Addr addr;  // as added, host bits included (remove_route matches it)
    int port;
  };
  // Every route of one prefix length, keyed by its masked address. Each
  // key's routes are in insertion order; the front one is the live route.
  struct Level {
    int len = 0;
    std::uint32_t mask = 0;
    std::unordered_map<std::uint32_t, std::vector<Route>> routes;
  };
  std::vector<Level>::iterator level_of(int len);

  std::vector<Level> levels_;  // prefix length desc
  std::vector<int> anycast_ports_;
  std::uint64_t no_route_drops_ = 0;
  std::uint64_t ttl_drops_ = 0;
};

}  // namespace pvn

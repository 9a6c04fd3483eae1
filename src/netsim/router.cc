#include "netsim/router.h"

#include <algorithm>

namespace pvn {
namespace {

// The address bits a prefix of length `len` compares; as Prefix::contains.
std::uint32_t mask_of(int len) {
  if (len <= 0) return 0;
  return len >= 32 ? 0xFFFFFFFFu : ~((1u << (32 - len)) - 1);
}

}  // namespace

Router::Router(Network& net, std::string name) : Node(net, std::move(name)) {}

std::vector<Router::Level>::iterator Router::level_of(int len) {
  return std::lower_bound(levels_.begin(), levels_.end(), len,
                          [](const Level& l, int n) { return l.len > n; });
}

void Router::add_route(Prefix prefix, int port) {
  auto level = level_of(prefix.len);
  if (level == levels_.end() || level->len != prefix.len) {
    level = levels_.emplace(level);
    level->len = prefix.len;
    level->mask = mask_of(prefix.len);
  }
  level->routes[prefix.addr.v & level->mask].push_back(
      Route{prefix.addr, port});
}

bool Router::remove_route(const Prefix& prefix) {
  const auto level = level_of(prefix.len);
  if (level == levels_.end() || level->len != prefix.len) return false;
  const auto key = level->routes.find(prefix.addr.v & level->mask);
  if (key == level->routes.end()) return false;
  std::vector<Route>& routes = key->second;
  const auto it =
      std::find_if(routes.begin(), routes.end(),
                   [&](const Route& r) { return r.addr == prefix.addr; });
  if (it == routes.end()) return false;
  routes.erase(it);
  if (routes.empty()) {
    level->routes.erase(key);
    if (level->routes.empty()) levels_.erase(level);
  }
  return true;
}

int Router::route_for(Ipv4Addr dst) const {
  for (const Level& level : levels_) {
    const auto it = level.routes.find(dst.v & level.mask);
    if (it != level.routes.end()) return it->second.front().port;
  }
  return -1;
}

void Router::add_anycast_port(int port) { anycast_ports_.push_back(port); }

void Router::handle_packet(Packet pkt, int in_port) {
  if (pkt.ip.ttl == 0) {
    ++ttl_drops_;
    return;
  }
  pkt.ip.ttl -= 1;
  if (pkt.ip.dst == kPvnAnycast) {
    for (const int port : anycast_ports_) {
      if (port == in_port) continue;
      send(port, pkt);  // replicate the flood
    }
    return;
  }
  const int out = route_for(pkt.ip.dst);
  if (out < 0) {
    ++no_route_drops_;
    return;
  }
  send(out, std::move(pkt));
}

}  // namespace pvn

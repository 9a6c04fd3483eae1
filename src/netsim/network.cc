#include "netsim/network.h"

#include <stdexcept>

namespace pvn {

void Network::register_node(std::unique_ptr<Node> node) {
  const auto [it, inserted] = by_name_.emplace(node->name(), node.get());
  if (!inserted) {
    throw std::invalid_argument("duplicate node name: " + node->name());
  }
  node->name_id_ = names_.intern(node->name());
  nodes_.push_back(std::move(node));
}

Node* Network::find_node(std::string_view name) {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

Link& Network::connect(Node& a, Node& b, LinkParams params) {
  links_.push_back(std::make_unique<Link>(*this, a, b, params));
  return *links_.back();
}

Packet Network::make_packet(Ipv4Addr src, Ipv4Addr dst, IpProto proto,
                            Bytes l4) {
  Packet pkt;
  pkt.id = next_packet_id();
  pkt.ip.src = src;
  pkt.ip.dst = dst;
  pkt.ip.proto = proto;
  pkt.l4 = std::move(l4);
  pkt.created_at = sim_.now();
  return pkt;
}

}  // namespace pvn

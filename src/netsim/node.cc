#include "netsim/node.h"

#include "netsim/link.h"
#include "netsim/network.h"

namespace pvn {

Node::Node(Network& net, std::string name)
    : net_(&net),
      sim_(&net.sim()),
      name_(std::move(name)) {}

Link* Node::port_link(int port) const {
  if (port < 0 || port >= static_cast<int>(ports_.size())) return nullptr;
  return ports_[static_cast<std::size_t>(port)];
}

void Node::send(int port, Packet pkt) {
  if (!up_) {
    ++down_drops_;
    return;
  }
  Link* link = port_link(port);
  if (link == nullptr) {
    ++unwired_drops_;
    return;
  }
  pkt.hop_trace.record(net_->names(), name_id_);
  link->transmit(*this, std::move(pkt));
}

int Node::attach_link(Link* link) {
  ports_.push_back(link);
  return static_cast<int>(ports_.size()) - 1;
}

}  // namespace pvn

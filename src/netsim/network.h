// Owner of the whole simulated topology: the event kernel (one Simulator),
// all Nodes, all Links.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netsim/link.h"
#include "netsim/names.h"
#include "netsim/node.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/sim.h"

namespace pvn {

class Network {
 public:
  explicit Network(std::uint64_t seed = 1) : rng_(seed) {}

  Simulator& sim() { return sim_; }

  Rng& rng() { return rng_; }

  // Interned node names (hop traces store ids against this table).
  NameTable& names() { return names_; }
  const NameTable& names() const { return names_; }

  // Constructs a node of type T (which must take (Network&, ...) ) and takes
  // ownership. Node names must be unique.
  template <typename T, typename... Args>
  T& add_node(Args&&... args) {
    auto node = std::make_unique<T>(*this, std::forward<Args>(args)...);
    T& ref = *node;
    register_node(std::move(node));
    return ref;
  }

  Node* find_node(std::string_view name);

  // Wires a new full-duplex link between two nodes; both get a new port.
  Link& connect(Node& a, Node& b, LinkParams params = {});

  // Unique per Network.
  std::uint64_t next_packet_id() { return next_packet_id_++; }

  // Builds a packet stamped with the current time and a fresh id.
  Packet make_packet(Ipv4Addr src, Ipv4Addr dst, IpProto proto, Bytes l4);

  const std::vector<std::unique_ptr<Link>>& links() const { return links_; }

 private:
  void register_node(std::unique_ptr<Node> node);

  Simulator sim_;
  Rng rng_;
  NameTable names_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Transparent hash/equal: find_node(string_view) never allocates.
  std::unordered_map<std::string, Node*, StringHash, StringEq> by_name_;
  std::vector<std::unique_ptr<Link>> links_;
  std::uint64_t next_packet_id_ = 1;
};

}  // namespace pvn

// Owner of the whole simulated topology: the event kernel (a ShardGroup of
// one or more Simulators), all Nodes, all Links.
//
// Sharding: a Network built with shards > 1 places each Node on the shard
// selected by set_build_shard() at construction time (default 0). Links
// whose endpoints live on different shards become cross-shard boundaries:
// they must be lossless and their latency must be >= the group's lookahead
// (Link asserts this). run_parallel() then executes the shards on a thread
// pool under conservative-lookahead windows — deterministically identical to
// the same topology on 1 shard (see util/shard.h for the contract).
// shards == 1 (the default) is exactly the legacy single-threaded kernel.
#pragma once

#include <atomic>
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
#include "util/shard.h"
#include "util/sim.h"

namespace pvn {

class Network {
 public:
  explicit Network(std::uint64_t seed = 1, std::size_t shards = 1,
                   SimDuration lookahead = milliseconds(1));

  // Shard 0's simulator — the only one in the (default) single-shard case.
  // Components that cache a Simulator& at construction should use
  // Node::sim() (their own shard) instead.
  Simulator& sim() { return shards_.shard(0); }
  ShardGroup& shards() { return shards_; }
  std::size_t shard_count() const { return shards_.shard_count(); }

  // Shard assigned to subsequently constructed Nodes (topology-build time
  // only; existing nodes never move).
  void set_build_shard(std::size_t s) { build_shard_ = s; }
  std::size_t build_shard() const { return build_shard_; }

  // Runs every shard to completion (threads only when shard_count() > 1).
  std::size_t run_parallel() { return shards_.run_parallel(); }
  std::size_t run_parallel_until(SimTime deadline) {
    return shards_.run_parallel_until(deadline);
  }

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

  // Unique per Network. Relaxed fetch_add: ids stay unique when shard
  // workers create packets concurrently, but their global order is not
  // deterministic across shard counts — determinism comparisons key on flow
  // identity and hop traces, never on packet ids.
  std::uint64_t next_packet_id() {
    return next_packet_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // Builds a packet stamped with the current time and a fresh id.
  Packet make_packet(Ipv4Addr src, Ipv4Addr dst, IpProto proto, Bytes l4);

  const std::vector<std::unique_ptr<Link>>& links() const { return links_; }

 private:
  void register_node(std::unique_ptr<Node> node);

  ShardGroup shards_;
  Rng rng_;
  NameTable names_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Transparent hash/equal: find_node(string_view) never allocates.
  std::unordered_map<std::string, Node*, StringHash, StringEq> by_name_;
  std::vector<std::unique_ptr<Link>> links_;
  std::atomic<std::uint64_t> next_packet_id_{1};
  std::size_t build_shard_ = 0;
};

}  // namespace pvn

// The sharded dataplane scenario the host-time gates share: e15's shard
// speedup, e20's flight-recorder overhead, and e22's observability overhead
// and shard-consistency story all run it.
//
// K access networks (source -> SdnSwitch+chain -> sink), one per shard,
// joined by a shard-0 core router. 90% of flows stay local, 10% cross the
// core. Send times are globally unique so cross-shard arrival order is a
// pure function of the schedule — the delivery digest must be identical for
// every shard count (the determinism gate).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mbox/host.h"
#include "mbox/inline_modules.h"
#include "netsim/router.h"
#include "ops/client.h"
#include "ops/endpoint.h"
#include "proto/host.h"
#include "sdn/switch.h"

namespace pvn::bench {

inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

class BenchSink : public Node {
 public:
  BenchSink(Network& net, std::string name) : Node(net, std::move(name)) {}
  void handle_packet(Packet pkt, int) override {
    const int flow = pkt.l4[0] | (pkt.l4[1] << 8);
    const int seq = pkt.l4[2] | (pkt.l4[3] << 8);
    per_flow[flow].push_back(seq);
    ++delivered;
  }
  std::map<int, std::vector<int>> per_flow;
  std::uint64_t delivered = 0;
};

// Per-flow self-retriggering sender: one pending event per flow, globally
// unique send slots (slot grid = 2us * flow count).
class BenchSource : public Node {
 public:
  BenchSource(Network& net, std::string name) : Node(net, std::move(name)) {}
  void handle_packet(Packet, int) override {}

  void start_flow(Network& net, int flow, int total_flows, int packets,
                  Ipv4Addr src, Ipv4Addr dst) {
    const SimDuration spacing = total_flows * microseconds(2);
    const SimTime first = milliseconds(1) + flow * microseconds(2);
    schedule_send(net, flow, 0, packets, src, dst, first, spacing);
  }

 private:
  void schedule_send(Network& net, int flow, int seq, int total, Ipv4Addr src,
                     Ipv4Addr dst, SimTime at, SimDuration spacing) {
    sim().schedule_at(at, SimCategory::kWorkload, [=, &net, this] {
      Bytes payload(256, 0x5A);
      payload[0] = static_cast<std::uint8_t>(flow & 0xFF);
      payload[1] = static_cast<std::uint8_t>(flow >> 8);
      payload[2] = static_cast<std::uint8_t>(seq & 0xFF);
      payload[3] = static_cast<std::uint8_t>(seq >> 8);
      send(0, net.make_packet(src, dst, IpProto::kUdp, std::move(payload)));
      if (seq + 1 < total) {
        schedule_send(net, flow, seq + 1, total, src, dst, at + spacing,
                      spacing);
      }
    });
  }
};

struct DataplaneScenario {
  static constexpr int kNetworks = 4;

  // `with_admin` adds the management plane on shard 0: an ops endpoint host
  // and an admin host, directly linked (deterministic request arrival time,
  // so a snapshot barrier lands at the same instant for every shard count).
  DataplaneScenario(std::size_t shards, int flows, int packets_per_flow,
                    bool with_admin)
      : net(/*seed=*/7, shards, /*lookahead=*/milliseconds(1)) {
    net.set_build_shard(0);
    core = &net.add_node<Router>("core");

    if (with_admin) {
      ops_host = &net.add_node<Host>("ops", Ipv4Addr(10, 99, 0, 1));
      admin_host = &net.add_node<Host>("admin", Ipv4Addr(10, 99, 0, 2));
      LinkParams mgmt;
      mgmt.rate = Rate::gbps(1);
      mgmt.latency = microseconds(100);
      net.connect(*admin_host, *ops_host, mgmt);
      endpoint = std::make_unique<OpsEndpoint>(*ops_host);
      client = std::make_unique<OpsClient>(*admin_host, Ipv4Addr(10, 99, 0, 1));
    }

    LinkParams access;
    access.rate = Rate::gbps(10);
    access.latency = microseconds(10);
    LinkParams backbone;
    backbone.rate = Rate::gbps(10);
    backbone.latency = milliseconds(1);

    for (int k = 0; k < kNetworks; ++k) {
      net.set_build_shard(static_cast<std::size_t>(k) % net.shard_count());
      const std::string id = std::to_string(k);
      auto& src = net.add_node<BenchSource>("src-" + id);
      auto& sw = net.add_node<SdnSwitch>("sw-" + id, 1);
      auto& sink = net.add_node<BenchSink>("sink-" + id);
      net.connect(src, sw, access);
      net.connect(sw, sink, access);
      net.connect(sw, *core, backbone);

      auto host = std::make_unique<MboxHost>(
          net.shards().shard(static_cast<std::size_t>(k) % net.shard_count()));
      Chain& chain = host->create_chain("chain-" + id);
      for (int m = 0; m < 5; ++m) {
        modules.push_back(std::make_unique<PiiDetector>(
            std::vector<std::string>{"imei=", "password=", "lat="},
            PiiAction::kMonitor));
        chain.append(modules.back().get());
      }
      sw.register_processor("chain-" + id, &chain);
      hosts.push_back(std::move(host));

      FlowRule local;
      local.priority = 100;
      local.match.dst =
          Prefix{Ipv4Addr(10, static_cast<std::uint8_t>(k), 0, 0), 16};
      local.actions.push_back(ActMbox{"chain-" + id});
      local.actions.push_back(ActOutput{1});
      sw.table(0).add(local);
      FlowRule remote;
      remote.priority = 1;
      remote.actions.push_back(ActOutput{2});
      sw.table(0).add(remote);
      core->add_route(
          Prefix{Ipv4Addr(10, static_cast<std::uint8_t>(k), 0, 0), 16}, k);

      sources.push_back(&src);
      sinks.push_back(&sink);
    }

    for (int f = 0; f < flows; ++f) {
      const int k = f % kNetworks;
      const Ipv4Addr from(10, static_cast<std::uint8_t>(k), 0, 2);
      // Every 10th flow crosses the core to the next network over.
      const int dst_net = (f % 10 == 0) ? (k + 1) % kNetworks : k;
      const Ipv4Addr to(10, static_cast<std::uint8_t>(dst_net), 0, 50);
      sources[static_cast<std::size_t>(k)]->start_flow(net, f, flows,
                                                       packets_per_flow, from,
                                                       to);
    }
  }

  std::uint64_t digest() const {
    std::uint64_t h = 1469598103934665603ull;
    for (const BenchSink* sink : sinks) {
      for (const auto& [flow, seqs] : sink->per_flow) {
        h = fnv1a(h, static_cast<std::uint64_t>(flow));
        for (const int s : seqs) h = fnv1a(h, static_cast<std::uint64_t>(s));
      }
    }
    return fnv1a(h, delivered());
  }
  std::uint64_t delivered() const {
    std::uint64_t n = 0;
    for (const BenchSink* sink : sinks) n += sink->delivered;
    return n;
  }

  Network net;
  Router* core = nullptr;
  Host* ops_host = nullptr;
  Host* admin_host = nullptr;
  std::unique_ptr<OpsEndpoint> endpoint;
  std::unique_ptr<OpsClient> client;
  std::vector<BenchSource*> sources;
  std::vector<BenchSink*> sinks;
  std::vector<std::unique_ptr<MboxHost>> hosts;
  std::vector<std::unique_ptr<Middlebox>> modules;
};

}  // namespace pvn::bench

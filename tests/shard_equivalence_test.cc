// Shard equivalence: an N-shard run of a topology produces every discrete
// outcome of the 1-shard run — matched rules and their per-rule hit
// counters, verdicts, drops, per-flow packet order, every per-object
// counter — and per-link hop traces identical to it, timestamps included.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "mbox/host.h"
#include "mbox/inline_modules.h"
#include "netsim/network.h"
#include "netsim/router.h"
#include "netsim/trace.h"
#include "sdn/switch.h"

namespace pvn {
namespace {

constexpr int kNetworks = 4;
constexpr int kFlows = 24;
constexpr int kPacketsPerFlow = 20;

std::uint16_t read_u16(const Packet& pkt, std::size_t off) {
  return static_cast<std::uint16_t>(pkt.l4[off] |
                                    (static_cast<std::uint16_t>(pkt.l4[off + 1])
                                     << 8));
}

// Sink that records per-flow delivery order (flow/seq are embedded in the
// payload).
class RecorderSink : public Node {
 public:
  RecorderSink(Network& net, std::string name) : Node(net, std::move(name)) {}
  void handle_packet(Packet pkt, int in_port) override {
    (void)in_port;
    const int flow = read_u16(pkt, 0);
    per_flow[flow].push_back(read_u16(pkt, 2));
    ++delivered;
  }
  std::map<int, std::vector<int>> per_flow;
  std::uint64_t delivered = 0;
};

// Sends a precomputed schedule of packets out port 0.
class PlannedSource : public Node {
 public:
  PlannedSource(Network& net, std::string name) : Node(net, std::move(name)) {}
  void handle_packet(Packet, int) override {}

  struct Send {
    SimTime at;
    Ipv4Addr src, dst;
    std::uint16_t flow, seq;
    bool pii;
  };

  void plan(Network& net, const std::vector<Send>& sends) {
    for (const Send s : sends) {
      sim().schedule_at(s.at, [this, &net, s] {
        Bytes payload(64, 0x5A);
        payload[0] = static_cast<std::uint8_t>(s.flow & 0xFF);
        payload[1] = static_cast<std::uint8_t>(s.flow >> 8);
        payload[2] = static_cast<std::uint8_t>(s.seq & 0xFF);
        payload[3] = static_cast<std::uint8_t>(s.seq >> 8);
        if (s.pii) {
          static constexpr char kLeak[] = "imei=3579";
          for (std::size_t i = 0; i + 1 < sizeof(kLeak); ++i) {
            payload[16 + i] = static_cast<std::uint8_t>(kLeak[i]);
          }
        }
        send(0, net.make_packet(s.src, s.dst, IpProto::kUdp,
                                std::move(payload)));
      });
    }
  }
};

struct Scenario {
  Scenario(std::size_t shards, std::uint64_t seed)
      : net(seed, shards, /*lookahead=*/milliseconds(1)) {
    net.set_build_shard(0);
    core = &net.add_node<Router>("core");

    LinkParams access;
    access.rate = Rate::gbps(10);
    access.latency = microseconds(10);
    LinkParams backbone;
    backbone.rate = Rate::gbps(10);
    backbone.latency = milliseconds(1);  // == lookahead (cross-shard minimum)

    for (int k = 0; k < kNetworks; ++k) {
      net.set_build_shard(static_cast<std::size_t>(k) % net.shard_count());
      const std::string id = std::to_string(k);
      auto& src = net.add_node<PlannedSource>("src-" + id);
      auto& sw = net.add_node<SdnSwitch>("sw-" + id, /*num_tables=*/1);
      auto& sink = net.add_node<RecorderSink>("sink-" + id);
      Link& l_src = net.connect(src, sw, access);   // sw port 0
      Link& l_sink = net.connect(sw, sink, access);  // sw port 1
      net.connect(sw, *core, backbone);              // sw port 2, core port k

      auto host = std::make_unique<MboxHost>(
          net.shards().shard(static_cast<std::size_t>(k) % net.shard_count()));
      Chain& chain = host->create_chain("chain-" + id);
      modules.push_back(std::make_unique<PiiDetector>(
          std::vector<std::string>{"imei=", "password="}, PiiAction::kMonitor));
      pii.push_back(static_cast<PiiDetector*>(modules.back().get()));
      chain.append(modules.back().get());
      modules.push_back(std::make_unique<TrackerBlocker>(
          std::set<Ipv4Addr>{tracker_addr(k)}));
      trackers.push_back(static_cast<TrackerBlocker*>(modules.back().get()));
      chain.append(modules.back().get());
      sw.register_processor("chain-" + id, &chain);
      chains.push_back(&chain);
      hosts.push_back(std::move(host));

      FlowRule local;
      local.priority = 100;
      local.match.dst = Prefix{Ipv4Addr(10, static_cast<std::uint8_t>(k), 0, 0),
                               16};
      local.actions.push_back(ActMbox{"chain-" + id});
      local.actions.push_back(ActOutput{1});
      sw.table(0).add(local);
      FlowRule remote;
      remote.priority = 1;
      remote.actions.push_back(ActOutput{2});
      sw.table(0).add(remote);

      core->add_route(Prefix{Ipv4Addr(10, static_cast<std::uint8_t>(k), 0, 0),
                             16},
                      k);

      // Per-network collector on the intra-shard links only (one shard's
      // thread owns all its records; cross-shard links would be taped from
      // two threads).
      auto tc = std::make_unique<TraceCollector>();
      tc->attach(l_src);
      tc->attach(l_sink);
      collectors.push_back(std::move(tc));

      sources.push_back(&src);
      switches.push_back(&sw);
      sinks.push_back(&sink);
    }

    // Flow plan: globally unique send times (so same-instant cross-shard
    // arrival order can never be observable), seeded identically for every
    // configuration under comparison.
    std::mt19937 rng(static_cast<std::uint32_t>(seed * 977 + 11));
    std::vector<std::vector<PlannedSource::Send>> plans(kNetworks);
    int slot = 0;
    for (int f = 0; f < kFlows; ++f) {
      const int k = f % kNetworks;
      const Ipv4Addr from(10, static_cast<std::uint8_t>(k), 0, 2);
      Ipv4Addr to(10, static_cast<std::uint8_t>(k), 0, 50);
      const std::uint32_t pick = rng() % 100;
      if (pick < 10) {
        to = tracker_addr(k);  // chain-dropped flow
      } else if (pick < 25) {
        const int j = (k + 1 + static_cast<int>(rng() % (kNetworks - 1))) %
                      kNetworks;
        to = Ipv4Addr(10, static_cast<std::uint8_t>(j), 0, 50);  // remote
      }
      const bool leaky = (f % 5) == 0;
      for (int s = 0; s < kPacketsPerFlow; ++s) {
        plans[static_cast<std::size_t>(k)].push_back(PlannedSource::Send{
            milliseconds(1) + slot * microseconds(2), from, to,
            static_cast<std::uint16_t>(f), static_cast<std::uint16_t>(s),
            leaky});
        ++slot;
      }
    }
    for (int k = 0; k < kNetworks; ++k) {
      sources[static_cast<std::size_t>(k)]->plan(
          net, plans[static_cast<std::size_t>(k)]);
    }
  }

  static Ipv4Addr tracker_addr(int k) {
    return Ipv4Addr(10, static_cast<std::uint8_t>(k), 0, 66);
  }

  void run() { net.run_parallel(); }

  Network net;
  Router* core = nullptr;
  std::vector<PlannedSource*> sources;
  std::vector<SdnSwitch*> switches;
  std::vector<RecorderSink*> sinks;
  std::vector<Chain*> chains;
  std::vector<PiiDetector*> pii;
  std::vector<TrackerBlocker*> trackers;
  std::vector<std::unique_ptr<MboxHost>> hosts;
  std::vector<std::unique_ptr<Middlebox>> modules;
  std::vector<std::unique_ptr<TraceCollector>> collectors;
};

// Everything a configuration's outcome is compared on.
struct Outcome {
  std::map<int, std::vector<int>> per_flow;
  std::uint64_t delivered = 0;
  SwitchStats stats;  // summed over switches
  std::uint64_t chain_packets = 0;
  std::uint64_t leaks = 0;
  std::uint64_t tracker_blocked = 0;
  std::uint64_t findings = 0;
  // Switch by switch, table by table: each rule's (hit_packets, hit_bytes)
  // in rank order, and each table's misses().
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rule_hits;
  std::vector<std::uint64_t> table_misses;
  // (from, to) direction -> ordered (at, src, dst, size) hop records.
  std::map<std::pair<std::string, std::string>,
           std::vector<std::tuple<SimTime, std::uint32_t, std::uint32_t,
                                  std::size_t>>>
      traces;
};

Outcome collect(const Scenario& sc) {
  Outcome o;
  for (const RecorderSink* sink : sc.sinks) {
    for (const auto& [flow, seqs] : sink->per_flow) o.per_flow[flow] = seqs;
    o.delivered += sink->delivered;
  }
  for (SdnSwitch* sw : sc.switches) {
    const SwitchStats& s = sw->stats();
    o.stats.packets_in += s.packets_in;
    o.stats.forwarded += s.forwarded;
    o.stats.dropped_rule += s.dropped_rule;
    o.stats.dropped_miss += s.dropped_miss;
    o.stats.dropped_meter += s.dropped_meter;
    o.stats.diverted_mbox += s.diverted_mbox;
    o.stats.tunneled += s.tunneled;
    for (int t = 0; t < sw->table_count(); ++t) {
      const FlowTable& table = sw->table(t);
      for (const FlowRule& rule : table.rules()) {
        o.rule_hits.emplace_back(rule.hit_packets, rule.hit_bytes);
      }
      o.table_misses.push_back(table.misses());
    }
  }
  for (const Chain* chain : sc.chains) {
    o.chain_packets += chain->packets();
    o.findings += chain->findings().size();
  }
  for (const PiiDetector* d : sc.pii) o.leaks += d->leaks_found();
  for (const TrackerBlocker* t : sc.trackers) o.tracker_blocked += t->blocked();
  for (const auto& tc : sc.collectors) {
    for (const TraceRecord& r : tc->records()) {
      o.traces[{r.from, r.to}].emplace_back(r.at, r.src.v, r.dst.v, r.size);
    }
  }
  return o;
}

void expect_same_discrete_outcomes(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.per_flow, b.per_flow);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.stats.packets_in, b.stats.packets_in);
  EXPECT_EQ(a.stats.forwarded, b.stats.forwarded);
  EXPECT_EQ(a.stats.dropped_rule, b.stats.dropped_rule);
  EXPECT_EQ(a.stats.dropped_miss, b.stats.dropped_miss);
  EXPECT_EQ(a.stats.dropped_meter, b.stats.dropped_meter);
  EXPECT_EQ(a.stats.diverted_mbox, b.stats.diverted_mbox);
  EXPECT_EQ(a.chain_packets, b.chain_packets);
  EXPECT_EQ(a.leaks, b.leaks);
  EXPECT_EQ(a.tracker_blocked, b.tracker_blocked);
  EXPECT_EQ(a.findings, b.findings);
  EXPECT_EQ(a.rule_hits, b.rule_hits);
  EXPECT_EQ(a.table_misses, b.table_misses);
}

class ShardEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardEquivalence, FourShardsMatchOneShard) {
  const std::uint64_t seed = GetParam();

  Scenario one(1, seed);
  Scenario four(4, seed);
  one.run();
  four.run();

  const Outcome a = collect(one);
  const Outcome b = collect(four);

  ASSERT_GT(a.delivered, 0u);
  ASSERT_GT(a.tracker_blocked, 0u);  // the drop path is actually exercised
  ASSERT_GT(a.leaks, 0u);

  expect_same_discrete_outcomes(a, b);
  ASSERT_FALSE(a.traces.empty());
  EXPECT_EQ(a.traces, b.traces);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardEquivalence, ::testing::Values(1u, 2u, 7u));

}  // namespace
}  // namespace pvn

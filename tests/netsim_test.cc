// Tests for the packet-level network simulator: addresses, links (delay,
// bandwidth, loss, queues), routers, and trace collection.
#include <gtest/gtest.h>

#include <algorithm>

#include "netsim/network.h"
#include "netsim/router.h"
#include "netsim/trace.h"
#include "util/rng.h"

namespace pvn {
namespace {

// A node that records everything it receives.
class SinkNode : public Node {
 public:
  SinkNode(Network& net, std::string name) : Node(net, std::move(name)) {}
  void handle_packet(Packet pkt, int in_port) override {
    received.push_back(std::move(pkt));
    in_ports.push_back(in_port);
    arrival_times.push_back(sim().now());
  }
  std::vector<Packet> received;
  std::vector<int> in_ports;
  std::vector<SimTime> arrival_times;
};

// A node that reflects packets back out the port they arrived on.
class EchoNode : public Node {
 public:
  EchoNode(Network& net, std::string name) : Node(net, std::move(name)) {}
  void handle_packet(Packet pkt, int in_port) override {
    std::swap(pkt.ip.src, pkt.ip.dst);
    send(in_port, std::move(pkt));
  }
};

Packet test_packet(Network& net, std::size_t payload = 100) {
  return net.make_packet(Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2),
                         IpProto::kUdp, Bytes(payload, 0xAA));
}

// --- Addresses ----------------------------------------------------------------

TEST(Ipv4Addr, ParseAndPrintRoundTrip) {
  const auto a = Ipv4Addr::parse("192.168.1.42");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "192.168.1.42");
  EXPECT_EQ(a->v, 0xC0A8012Au);
}

TEST(Ipv4Addr, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Addr::parse("").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("256.0.0.1").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.x").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1..3.4").has_value());
}

TEST(Prefix, ContainsRespectsLength) {
  const auto p = Prefix::parse("10.1.0.0/16");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->contains(Ipv4Addr(10, 1, 200, 7)));
  EXPECT_FALSE(p->contains(Ipv4Addr(10, 2, 0, 1)));
  const auto all = Prefix::parse("0.0.0.0/0");
  ASSERT_TRUE(all.has_value());
  EXPECT_TRUE(all->contains(Ipv4Addr(255, 255, 255, 255)));
}

TEST(Prefix, HostParseDefaultsTo32) {
  const auto p = Prefix::parse("10.0.0.5");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->len, 32);
  EXPECT_TRUE(p->contains(Ipv4Addr(10, 0, 0, 5)));
  EXPECT_FALSE(p->contains(Ipv4Addr(10, 0, 0, 6)));
}

TEST(Prefix, ParseRejectsBadLength) {
  EXPECT_FALSE(Prefix::parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/-1").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/").has_value());
}

// --- IpHeader codec --------------------------------------------------------------

TEST(IpHeader, EncodeDecodeRoundTrip) {
  IpHeader h;
  h.src = Ipv4Addr(1, 2, 3, 4);
  h.dst = Ipv4Addr(5, 6, 7, 8);
  h.proto = IpProto::kTcp;
  h.ttl = 17;
  h.tos = 0x2E;
  ByteWriter w;
  h.encode(w);
  EXPECT_EQ(w.size(), IpHeader::kWireSize);
  ByteReader r(w.bytes());
  EXPECT_EQ(IpHeader::decode(r), h);
  EXPECT_TRUE(r.exhausted());
}

// --- Links ---------------------------------------------------------------------

TEST(Link, DeliversWithLatencyPlusSerialization) {
  Network net;
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  LinkParams lp;
  lp.rate = Rate::mbps(12);          // 1500B -> 1ms serialization
  lp.latency = milliseconds(10);
  net.connect(a, b, lp);

  Packet pkt = test_packet(net, 1500 - IpHeader::kWireSize);
  EXPECT_EQ(pkt.size(), 1500u);
  a.send(0, std::move(pkt));
  net.sim().run();

  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.arrival_times[0], milliseconds(11));
  EXPECT_EQ(b.in_ports[0], 0);
}

TEST(Link, SerializationDelaysBackToBackPackets) {
  Network net;
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  LinkParams lp;
  lp.rate = Rate::mbps(12);
  lp.latency = 0;
  net.connect(a, b, lp);

  for (int i = 0; i < 3; ++i) {
    a.send(0, test_packet(net, 1500 - IpHeader::kWireSize));
  }
  net.sim().run();
  ASSERT_EQ(b.received.size(), 3u);
  EXPECT_EQ(b.arrival_times[0], milliseconds(1));
  EXPECT_EQ(b.arrival_times[1], milliseconds(2));
  EXPECT_EQ(b.arrival_times[2], milliseconds(3));
}

TEST(Link, IsFullDuplex) {
  Network net;
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  LinkParams lp;
  lp.rate = Rate::mbps(12);
  lp.latency = 0;
  net.connect(a, b, lp);

  // Simultaneous sends in both directions must not serialize behind each
  // other.
  a.send(0, test_packet(net, 1500 - IpHeader::kWireSize));
  b.send(0, test_packet(net, 1500 - IpHeader::kWireSize));
  net.sim().run();
  ASSERT_EQ(a.received.size(), 1u);
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(a.arrival_times[0], milliseconds(1));
  EXPECT_EQ(b.arrival_times[0], milliseconds(1));
}

TEST(Link, DropTailQueueBoundsBacklog) {
  Network net;
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  LinkParams lp;
  lp.rate = Rate::kbps(100);
  lp.latency = 0;
  lp.queue_bytes = 3000;  // room for ~2 x 1500B packets in the queue
  Link& link = net.connect(a, b, lp);

  for (int i = 0; i < 10; ++i) {
    a.send(0, test_packet(net, 1500 - IpHeader::kWireSize));
  }
  net.sim().run();
  // 1 in flight + 2 queued = 3 delivered; 7 dropped.
  EXPECT_EQ(b.received.size(), 3u);
  EXPECT_EQ(link.stats_from(a).queue_drops, 7u);
  EXPECT_EQ(link.stats_from(a).delivered_packets, 3u);
}

TEST(Link, LossDropsApproximatelyAtConfiguredRate) {
  Network net(1234);
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  LinkParams lp;
  lp.rate = Rate::gbps(10);
  lp.latency = 0;
  lp.loss = 0.2;
  lp.queue_bytes = 100 * kMiB;
  Link& link = net.connect(a, b, lp);

  const int n = 5000;
  for (int i = 0; i < n; ++i) a.send(0, test_packet(net, 80));
  net.sim().run();
  const double delivered = static_cast<double>(b.received.size()) / n;
  EXPECT_NEAR(delivered, 0.8, 0.03);
  EXPECT_EQ(link.stats_from(a).loss_drops + b.received.size(),
            static_cast<std::uint64_t>(n));
}

TEST(Link, ZeroLossDeliversEverything) {
  Network net;
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  LinkParams lp;
  lp.rate = Rate::gbps(10);
  lp.queue_bytes = 100 * kMiB;
  net.connect(a, b, lp);
  for (int i = 0; i < 1000; ++i) a.send(0, test_packet(net, 80));
  net.sim().run();
  EXPECT_EQ(b.received.size(), 1000u);
}

TEST(Link, StatsCountBytes) {
  Network net;
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  Link& link = net.connect(a, b);
  a.send(0, test_packet(net, 100));
  net.sim().run();
  EXPECT_EQ(link.stats_from(a).tx_bytes, 120u);  // 100 + 20B header
  EXPECT_EQ(link.stats_from(b).tx_bytes, 0u);
}

TEST(Node, SendOnUnwiredPortCountsDrop) {
  Network net;
  auto& a = net.add_node<SinkNode>("a");
  a.send(0, test_packet(net));
  a.send(5, test_packet(net));
  net.sim().run();
  EXPECT_EQ(a.dropped_on_unwired_port(), 2u);
}

TEST(Network, DuplicateNodeNameThrows) {
  Network net;
  net.add_node<SinkNode>("dup");
  EXPECT_THROW(net.add_node<SinkNode>("dup"), std::invalid_argument);
}

TEST(Network, FindNodeByName) {
  Network net;
  auto& a = net.add_node<SinkNode>("alpha");
  EXPECT_EQ(net.find_node("alpha"), &a);
  EXPECT_EQ(net.find_node("missing"), nullptr);
}

TEST(Network, PacketIdsAreUnique) {
  Network net;
  const Packet p1 = test_packet(net);
  const Packet p2 = test_packet(net);
  EXPECT_NE(p1.id, p2.id);
}

// --- Router ----------------------------------------------------------------------

TEST(Router, LongestPrefixMatchWins) {
  Network net;
  auto& r = net.add_node<Router>("r");
  auto& coarse = net.add_node<SinkNode>("coarse");
  auto& fine = net.add_node<SinkNode>("fine");
  auto& src = net.add_node<SinkNode>("src");
  net.connect(src, r);     // r port 0
  net.connect(r, coarse);  // r port 1
  net.connect(r, fine);    // r port 2
  r.add_route(*Prefix::parse("10.0.0.0/8"), 1);
  r.add_route(*Prefix::parse("10.1.0.0/16"), 2);

  Packet to_fine = net.make_packet(Ipv4Addr(1, 1, 1, 1), Ipv4Addr(10, 1, 9, 9),
                                   IpProto::kUdp, {});
  Packet to_coarse = net.make_packet(Ipv4Addr(1, 1, 1, 1),
                                     Ipv4Addr(10, 200, 0, 1), IpProto::kUdp, {});
  src.send(0, std::move(to_fine));
  src.send(0, std::move(to_coarse));
  net.sim().run();
  EXPECT_EQ(fine.received.size(), 1u);
  EXPECT_EQ(coarse.received.size(), 1u);
}

TEST(Router, NoRouteDrops) {
  Network net;
  auto& r = net.add_node<Router>("r");
  auto& src = net.add_node<SinkNode>("src");
  net.connect(src, r);
  src.send(0, test_packet(net));
  net.sim().run();
  EXPECT_EQ(r.no_route_drops(), 1u);
}

TEST(Router, DecrementsTtlAndDropsExpired) {
  Network net;
  auto& r = net.add_node<Router>("r");
  auto& dst = net.add_node<SinkNode>("dst");
  auto& src = net.add_node<SinkNode>("src");
  net.connect(src, r);
  net.connect(r, dst);
  r.add_route(*Prefix::parse("0.0.0.0/0"), 1);

  Packet pkt = test_packet(net);
  pkt.ip.ttl = 3;
  src.send(0, std::move(pkt));
  Packet dead = test_packet(net);
  dead.ip.ttl = 0;
  src.send(0, std::move(dead));
  net.sim().run();
  ASSERT_EQ(dst.received.size(), 1u);
  EXPECT_EQ(dst.received[0].ip.ttl, 2);
  EXPECT_EQ(r.ttl_drops(), 1u);
}

TEST(Router, RemoveRoute) {
  Network net;
  auto& r = net.add_node<Router>("r");
  auto& dst = net.add_node<SinkNode>("dst");
  auto& src = net.add_node<SinkNode>("src");
  net.connect(src, r);
  net.connect(r, dst);
  const Prefix all = *Prefix::parse("0.0.0.0/0");
  r.add_route(all, 1);
  EXPECT_TRUE(r.remove_route(all));
  EXPECT_FALSE(r.remove_route(all));
  src.send(0, test_packet(net));
  net.sim().run();
  EXPECT_EQ(dst.received.size(), 0u);
  EXPECT_EQ(r.no_route_drops(), 1u);
}

// The linear Router this one replaced, verbatim: routes stable-sorted by
// prefix length (longest first, insertion order among equals), and the
// first route containing the destination wins.
class LinearRoutes {
 public:
  void add(Prefix prefix, int port) {
    routes_.push_back(Entry{prefix, port});
    std::stable_sort(routes_.begin(), routes_.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.prefix.len > b.prefix.len;
                     });
  }
  bool remove(const Prefix& prefix) {
    const auto it = std::find_if(
        routes_.begin(), routes_.end(),
        [&](const Entry& e) { return e.prefix == prefix; });
    if (it == routes_.end()) return false;
    routes_.erase(it);
    return true;
  }
  // The winning route's prefix for `dst`, or nullptr.
  const Prefix* winner(Ipv4Addr dst) const {
    const Entry* e = winning_entry(dst);
    return e != nullptr ? &e->prefix : nullptr;
  }
  int route_for(Ipv4Addr dst) const {
    const Entry* e = winning_entry(dst);
    return e != nullptr ? e->port : -1;
  }
  bool empty() const { return routes_.empty(); }
  const Prefix& at(std::size_t i) const { return routes_[i].prefix; }
  std::size_t size() const { return routes_.size(); }
  // True iff a route other than `skip` covers exactly p's addresses.
  bool has_twin(const Prefix& p, const Prefix* skip) const {
    for (const Entry& e : routes_) {
      if (&e.prefix != skip && e.prefix.len == p.len &&
          e.prefix.contains(p.addr)) {
        return true;
      }
    }
    return false;
  }

 private:
  struct Entry {
    Prefix prefix;
    int port;
  };
  const Entry* winning_entry(Ipv4Addr dst) const {
    for (const Entry& e : routes_) {
      if (e.prefix.contains(dst)) return &e;
    }
    return nullptr;
  }
  std::vector<Entry> routes_;
};

TEST(Router, HashedLpmMatchesLinearReference) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    Network net;
    auto& r = net.add_node<Router>("r");
    LinearRoutes ref;
    // Narrow pools so prefixes nest, collide and repeat.
    const auto random_addr = [&] {
      return Ipv4Addr(10, static_cast<std::uint8_t>(rng.next_below(2)),
                      static_cast<std::uint8_t>(rng.next_below(4)),
                      static_cast<std::uint8_t>(rng.next_below(256)));
    };
    const auto probe = [&](const char* step) {
      for (int p = 0; p < 24; ++p) {
        // Half the probes land inside an installed prefix.
        Ipv4Addr dst = random_addr();
        if (!ref.empty() && rng.bernoulli(0.5)) {
          dst = ref.at(rng.next_below(ref.size())).addr;
          dst.v ^= static_cast<std::uint32_t>(rng.next_below(4));
        }
        ASSERT_EQ(r.route_for(dst), ref.route_for(dst))
            << "seed " << seed << " after " << step << ", dst "
            << dst.to_string();
      }
    };
    int duplicates = 0;
    int winner_handovers = 0;
    int next_port = 0;
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t op = rng.next_below(10);
      if (op < 6) {
        // Host bits stay set below the length, as a sloppy config has them.
        Prefix p{random_addr(), static_cast<int>(rng.next_below(33))};
        if (!ref.empty() && rng.bernoulli(0.25)) {
          p = ref.at(rng.next_below(ref.size()));  // same prefix, new port
          ++duplicates;
        }
        r.add_route(p, next_port);
        ref.add(p, next_port);
        ++next_port;
        probe("add");
      } else if (op < 9) {
        // Remove the current winner for some destination.
        Ipv4Addr dst = random_addr();
        if (!ref.empty()) dst = ref.at(rng.next_below(ref.size())).addr;
        const Prefix* won = ref.winner(dst);
        if (won == nullptr) continue;
        const Prefix p = *won;
        if (ref.has_twin(p, won)) ++winner_handovers;
        EXPECT_EQ(r.remove_route(p), ref.remove(p));
        probe("remove of a winner");
      } else {
        const Prefix p{random_addr(), static_cast<int>(rng.next_below(33))};
        EXPECT_EQ(r.remove_route(p), ref.remove(p));
        probe("remove");
      }
    }
    EXPECT_GT(duplicates, 0) << "seed " << seed;
    EXPECT_GT(winner_handovers, 0) << "seed " << seed;
  }
}

// --- Hop trace & echo ---------------------------------------------------------------

TEST(Packet, HopTraceRecordsPath) {
  Network net;
  auto& src = net.add_node<SinkNode>("src");
  auto& r1 = net.add_node<Router>("r1");
  auto& r2 = net.add_node<Router>("r2");
  auto& dst = net.add_node<SinkNode>("dst");
  net.connect(src, r1);
  net.connect(r1, r2);
  net.connect(r2, dst);
  r1.add_route(*Prefix::parse("0.0.0.0/0"), 1);
  r2.add_route(*Prefix::parse("0.0.0.0/0"), 1);

  src.send(0, test_packet(net));
  net.sim().run();
  ASSERT_EQ(dst.received.size(), 1u);
  EXPECT_EQ(dst.received[0].hop_trace.strings(),
            (std::vector<std::string>{"src", "r1", "r2"}));
}

// Regression: interned hop traces must round-trip to the exact strings the
// pre-interning vector<string> representation produced (what the auditor
// benches compare against as ground truth).
TEST(Packet, InternedHopTraceRoundTripsToStrings) {
  Network net;
  auto& src = net.add_node<SinkNode>("gw-src");
  auto& r1 = net.add_node<Router>("isp.access-1");
  auto& dst = net.add_node<SinkNode>("subscriber/42");
  net.connect(src, r1);
  net.connect(r1, dst);
  r1.add_route(*Prefix::parse("0.0.0.0/0"), 1);

  src.send(0, test_packet(net));
  src.send(0, test_packet(net));
  net.sim().run();
  ASSERT_EQ(dst.received.size(), 2u);
  const std::vector<std::string> want{"gw-src", "isp.access-1"};
  EXPECT_EQ(dst.received[0].hop_trace.strings(), want);
  EXPECT_EQ(dst.received[1].hop_trace.strings(), want);
  // Both packets traversed the same nodes, so their interned ids are equal
  // and drawn from the one per-Network table.
  EXPECT_EQ(dst.received[0].hop_trace, dst.received[1].hop_trace);
  EXPECT_EQ(dst.received[0].hop_trace.names, &net.names());
  // Ids are stable: interning the same name again is a no-op.
  EXPECT_EQ(net.names().intern("gw-src"), dst.received[0].hop_trace.ids[0]);
}

TEST(Network, FindNodeWithStringViewIsTransparent) {
  Network net;
  auto& node = net.add_node<SinkNode>("needle");
  const std::string_view sv = "needle";
  EXPECT_EQ(net.find_node(sv), &node);
  EXPECT_EQ(net.find_node("missing"), nullptr);
}

// CoW payloads: copies share the backing buffer; in-place mutation detaches
// the writer and leaves other holders untouched.
TEST(Packet, CopyOnWritePayloadSharesUntilMutated) {
  Network net;
  Packet a = test_packet(net, 64);
  EXPECT_EQ(a.l4.use_count(), 1);
  Packet b = a;
  EXPECT_EQ(a.l4.use_count(), 2);
  EXPECT_EQ(b.l4.data(), a.l4.data());

  b.l4[0] ^= 0xFF;  // detaches b
  EXPECT_EQ(a.l4.use_count(), 1);
  EXPECT_NE(b.l4.data(), a.l4.data());
  EXPECT_EQ(a.l4[0], 0xAA);
  EXPECT_EQ(b.l4[0], 0xAA ^ 0xFF);
}

TEST(EchoNode, RoundTripTimeIsTwiceOneWay) {
  Network net;
  auto& a = net.add_node<SinkNode>("a");
  auto& echo = net.add_node<EchoNode>("echo");
  LinkParams lp;
  lp.rate = Rate::gbps(100);  // negligible serialization
  lp.latency = milliseconds(25);
  net.connect(a, echo, lp);
  a.send(0, test_packet(net, 10));
  net.sim().run();
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_GE(a.arrival_times[0], milliseconds(50));
  EXPECT_LT(a.arrival_times[0], milliseconds(51));
}

// --- TraceCollector ------------------------------------------------------------------

TEST(TraceCollector, RecordsDeliveredPackets) {
  Network net;
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  Link& link = net.connect(a, b);
  TraceCollector tc;
  tc.attach(link);
  for (int i = 0; i < 5; ++i) a.send(0, test_packet(net, 100));
  net.sim().run();
  EXPECT_EQ(tc.records().size(), 5u);
  EXPECT_EQ(tc.bytes_from_to("a", "b"), 5 * 120u);
  EXPECT_EQ(tc.bytes_from_to("b", "a"), 0u);
  EXPECT_EQ(tc.count_packets(IpProto::kUdp), 5u);
  EXPECT_EQ(tc.count_packets(IpProto::kTcp), 0u);
}

TEST(TraceCollector, ThroughputReflectsLinkRate) {
  Network net;
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  LinkParams lp;
  lp.rate = Rate::mbps(10);
  lp.latency = 0;
  lp.queue_bytes = 10 * kMiB;
  Link& link = net.connect(a, b, lp);
  TraceCollector tc;
  tc.attach(link);
  for (int i = 0; i < 200; ++i) {
    a.send(0, test_packet(net, 1500 - IpHeader::kWireSize));
  }
  net.sim().run();
  // Back-to-back packets on a saturated link: observed rate ~= link rate.
  EXPECT_NEAR(tc.mean_throughput_bps("a", "b") / 1e6, 10.0, 0.5);
}


TEST(Link, ChainedTapsAllObserveEveryDelivery) {
  Network net;
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  Link& link = net.connect(a, b);

  // Regression: attaching a TraceCollector used to silently evict any
  // previously installed tap. Both observers must now see every packet.
  int attacker_seen = 0;
  link.add_tap([&](const Packet&, const Node&, const Node&) {
    ++attacker_seen;
  });
  TraceCollector tc;
  tc.attach(link);
  EXPECT_EQ(link.tap_count(), 2u);

  for (int i = 0; i < 5; ++i) a.send(0, test_packet(net, 100));
  net.sim().run();
  EXPECT_EQ(attacker_seen, 5);
  EXPECT_EQ(tc.records().size(), 5u);

  link.clear_taps();
  EXPECT_EQ(link.tap_count(), 0u);
}

// Parameterized property: delivery time = latency + size/rate across a grid.
struct LinkTimingCase {
  int mbps;
  int payload;
  int latency_ms;
};

class LinkTimingProperty : public ::testing::TestWithParam<LinkTimingCase> {};

TEST_P(LinkTimingProperty, OnePacketTiming) {
  const auto [mbps, payload, latency_ms] = GetParam();
  Network net;
  auto& a = net.add_node<SinkNode>("a");
  auto& b = net.add_node<SinkNode>("b");
  LinkParams lp;
  lp.rate = Rate::mbps(mbps);
  lp.latency = milliseconds(latency_ms);
  net.connect(a, b, lp);
  Packet pkt = test_packet(net, static_cast<std::size_t>(payload));
  const auto size = static_cast<std::int64_t>(pkt.size());
  a.send(0, std::move(pkt));
  net.sim().run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.arrival_times[0],
            milliseconds(latency_ms) + lp.rate.transmit_time(size));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LinkTimingProperty,
    ::testing::Values(LinkTimingCase{1, 100, 1}, LinkTimingCase{10, 1480, 5},
                      LinkTimingCase{100, 9000, 20},
                      LinkTimingCase{1000, 64, 0},
                      LinkTimingCase{25, 4000, 50}));

}  // namespace
}  // namespace pvn

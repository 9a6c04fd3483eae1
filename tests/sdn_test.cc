// SDN dataplane tests: match semantics, flow-table priority/specificity,
// meters, switch pipeline (multi-table, actions, default port), controller.
#include <gtest/gtest.h>

#include "fixtures.h"
#include "sdn/controller.h"

namespace pvn {
namespace {

Packet udp_packet(Network& net, Ipv4Addr src, Ipv4Addr dst, Port sport,
                  Port dport, std::size_t payload = 64, std::uint8_t tos = 0) {
  UdpHeader hdr;
  hdr.src_port = sport;
  hdr.dst_port = dport;
  Packet pkt = net.make_packet(src, dst, IpProto::kUdp,
                               serialize_udp(hdr, Bytes(payload, 0xAB)));
  pkt.ip.tos = tos;
  return pkt;
}

class SinkNode : public Node {
 public:
  SinkNode(Network& net, std::string name) : Node(net, std::move(name)) {}
  void handle_packet(Packet pkt, int) override {
    received.push_back(std::move(pkt));
  }
  std::vector<Packet> received;
};

// --- FlowMatch ---------------------------------------------------------------

TEST(FlowMatch, WildcardMatchesEverything) {
  Network net;
  const Packet pkt = udp_packet(net, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2),
                                1000, 2000);
  EXPECT_TRUE(FlowMatch::any().matches(pkt, 0));
  EXPECT_TRUE(FlowMatch::any().matches(pkt, 7));
}

TEST(FlowMatch, EachFieldFilters) {
  Network net;
  const Packet pkt = udp_packet(net, Ipv4Addr(10, 0, 0, 5),
                                Ipv4Addr(93, 184, 216, 34), 5353, 53, 64, 0x20);
  FlowMatch m;
  m.src = *Prefix::parse("10.0.0.0/24");
  m.dst = *Prefix::parse("93.184.216.34");
  m.proto = IpProto::kUdp;
  m.src_port = 5353;
  m.dst_port = 53;
  m.tos = 0x20;
  m.in_port = 3;
  EXPECT_TRUE(m.matches(pkt, 3));
  EXPECT_FALSE(m.matches(pkt, 4));  // wrong in_port

  FlowMatch wrong = m;
  wrong.src = *Prefix::parse("10.0.1.0/24");
  EXPECT_FALSE(wrong.matches(pkt, 3));
  wrong = m;
  wrong.proto = IpProto::kTcp;
  EXPECT_FALSE(wrong.matches(pkt, 3));
  wrong = m;
  wrong.dst_port = 80;
  EXPECT_FALSE(wrong.matches(pkt, 3));
  wrong = m;
  wrong.tos = 0;
  EXPECT_FALSE(wrong.matches(pkt, 3));
}

TEST(FlowMatch, PortMatchOnPortlessProtoFails) {
  Network net;
  Packet pkt = net.make_packet(Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2),
                               IpProto::kEsp, Bytes(8, 0));
  FlowMatch m;
  m.dst_port = 53;
  EXPECT_FALSE(m.matches(pkt, 0));
}

// --- FlowTable ----------------------------------------------------------------

TEST(FlowTable, HighestPriorityWins) {
  Network net;
  FlowTable table;
  FlowRule low;
  low.priority = 1;
  low.cookie = "low";
  FlowRule high;
  high.priority = 10;
  high.cookie = "high";
  table.add(low);
  table.add(high);
  const Packet pkt = udp_packet(net, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2),
                                1, 2);
  const FlowRule* hit = table.lookup(pkt, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cookie, "high");
}

TEST(FlowTable, MoreSpecificWinsAtEqualPriority) {
  Network net;
  FlowTable table;
  FlowRule coarse;
  coarse.priority = 5;
  coarse.cookie = "coarse";
  FlowRule fine;
  fine.priority = 5;
  fine.match.dst = *Prefix::parse("2.2.2.2");
  fine.match.proto = IpProto::kUdp;
  fine.cookie = "fine";
  table.add(coarse);
  table.add(fine);
  const Packet pkt = udp_packet(net, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2),
                                1, 2);
  EXPECT_EQ(table.lookup(pkt, 0)->cookie, "fine");
}

TEST(FlowTable, CountersAndMisses) {
  Network net;
  FlowTable table;
  FlowRule rule;
  rule.match.proto = IpProto::kUdp;
  table.add(rule);
  const Packet udp = udp_packet(net, Ipv4Addr(1, 1, 1, 1),
                                Ipv4Addr(2, 2, 2, 2), 1, 2);
  Packet esp = net.make_packet(Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2),
                               IpProto::kEsp, Bytes(8, 0));
  table.lookup(udp, 0);
  table.lookup(udp, 0);
  EXPECT_EQ(table.lookup(esp, 0), nullptr);
  EXPECT_EQ(table.rules()[0].hit_packets, 2u);
  EXPECT_EQ(table.rules()[0].hit_bytes, 2 * udp.size());
  EXPECT_EQ(table.misses(), 1u);
}

TEST(FlowTable, RemoveByCookie) {
  FlowTable table;
  for (int i = 0; i < 5; ++i) {
    FlowRule rule;
    rule.cookie = i % 2 == 0 ? "pvn:alice" : "pvn:bob";
    table.add(rule);
  }
  EXPECT_EQ(table.remove_by_cookie("pvn:alice"), 3u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.remove_by_cookie("pvn:alice"), 0u);
}

// --- Meter ----------------------------------------------------------------------

TEST(Meter, PassesWithinRateDropsAbove) {
  // 1 Mbps meter, 10 KB burst; offered 2 Mbps for 10 s -> ~half dropped.
  Meter meter(Rate::mbps(1), 10 * 1024);
  const std::int64_t pkt_size = 1250;  // 10 kbit
  int passed = 0;
  const int total = 2000;  // 2 Mbps for 10 s = 20 Mbit = 2000 pkts
  for (int i = 0; i < total; ++i) {
    const SimTime t = i * (milliseconds(10) / 2);  // 2 pkts per 10 ms
    if (meter.conforms(pkt_size, t)) ++passed;
  }
  const double ratio = static_cast<double>(passed) / total;
  EXPECT_NEAR(ratio, 0.5, 0.1);
}

TEST(Meter, BurstAllowsShortSpikes) {
  Meter meter(Rate::kbps(8), 10000);  // 1 KB/s steady, 10 KB burst
  // 5 back-to-back 1 KB packets at t=0 all fit in the burst.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(meter.conforms(1000, 0)) << i;
  }
  // The 11th at t=0 exceeds the bucket.
  for (int i = 0; i < 5; ++i) meter.conforms(1000, 0);
  EXPECT_FALSE(meter.conforms(1000, 0));
  // After 1 s, one more 1 KB fits (refilled 1 KB).
  EXPECT_TRUE(meter.conforms(1000, seconds(1)));
  EXPECT_FALSE(meter.conforms(1000, seconds(1)));
}

// --- Switch pipeline ---------------------------------------------------------------

struct SwitchTopo {
  Network net;
  SinkNode* left;
  SinkNode* right;
  SdnSwitch* sw;

  SwitchTopo() {
    left = &net.add_node<SinkNode>("left");
    right = &net.add_node<SinkNode>("right");
    sw = &net.add_node<SdnSwitch>("sw", 2);
    net.connect(*left, *sw);   // sw port 0
    net.connect(*right, *sw);  // sw port 1
  }
};

TEST(SdnSwitch, OutputActionForwards) {
  SwitchTopo t;
  FlowRule rule;
  rule.actions.push_back(ActOutput{1});
  t.sw->table(0).add(rule);
  t.left->send(0, udp_packet(t.net, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2),
                             1, 2));
  t.net.sim().run();
  EXPECT_EQ(t.right->received.size(), 1u);
  EXPECT_EQ(t.sw->stats().forwarded, 1u);
}

TEST(SdnSwitch, TableMissDropsWithoutDefault) {
  SwitchTopo t;
  t.left->send(0, udp_packet(t.net, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2),
                             1, 2));
  t.net.sim().run();
  EXPECT_EQ(t.right->received.size(), 0u);
  EXPECT_EQ(t.sw->stats().dropped_miss, 1u);
}

TEST(SdnSwitch, TableMissUsesDefaultPort) {
  SwitchTopo t;
  t.sw->set_default_port(1);
  t.left->send(0, udp_packet(t.net, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2),
                             1, 2));
  t.net.sim().run();
  EXPECT_EQ(t.right->received.size(), 1u);
}

TEST(SdnSwitch, DropActionDrops) {
  SwitchTopo t;
  FlowRule rule;
  rule.actions.push_back(ActDrop{});
  t.sw->table(0).add(rule);
  t.left->send(0, udp_packet(t.net, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2),
                             1, 2));
  t.net.sim().run();
  EXPECT_EQ(t.sw->stats().dropped_rule, 1u);
}

TEST(SdnSwitch, SetTosAndSetDstRewrite) {
  SwitchTopo t;
  FlowRule rule;
  rule.actions.push_back(ActSetTos{0x2E});
  rule.actions.push_back(ActSetDst{Ipv4Addr(9, 9, 9, 9)});
  rule.actions.push_back(ActOutput{1});
  t.sw->table(0).add(rule);
  t.left->send(0, udp_packet(t.net, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2),
                             1, 2));
  t.net.sim().run();
  ASSERT_EQ(t.right->received.size(), 1u);
  EXPECT_EQ(t.right->received[0].ip.tos, 0x2E);
  EXPECT_EQ(t.right->received[0].ip.dst, Ipv4Addr(9, 9, 9, 9));
}

TEST(SdnSwitch, GotoTableChainsLookups) {
  SwitchTopo t;
  FlowRule stage1;
  stage1.actions.push_back(ActSetTos{7});
  stage1.actions.push_back(ActGotoTable{1});
  t.sw->table(0).add(stage1);
  FlowRule stage2;
  stage2.match.tos = 7;  // sees the rewritten tos
  stage2.actions.push_back(ActOutput{1});
  t.sw->table(1).add(stage2);
  t.left->send(0, udp_packet(t.net, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2),
                             1, 2));
  t.net.sim().run();
  EXPECT_EQ(t.right->received.size(), 1u);
}

TEST(SdnSwitch, MeterActionShapesTraffic) {
  SwitchTopo t;
  t.sw->add_meter("m1", Rate::mbps(1), 2000);
  FlowRule rule;
  rule.actions.push_back(ActMeter{"m1"});
  rule.actions.push_back(ActOutput{1});
  t.sw->table(0).add(rule);
  // Offer ~10 Mbps for 1 s: ~90% should be dropped by the meter.
  const int total = 1000;
  for (int i = 0; i < total; ++i) {
    t.net.sim().schedule_at(i * (seconds(1) / total), [&t] {
      t.left->send(0, udp_packet(t.net, Ipv4Addr(1, 1, 1, 1),
                                 Ipv4Addr(2, 2, 2, 2), 1, 2, 1200));
    });
  }
  t.net.sim().run();
  EXPECT_LT(t.right->received.size(), 200u);
  EXPECT_GT(t.right->received.size(), 50u);
  EXPECT_GT(t.sw->stats().dropped_meter, 700u);
}

TEST(SdnSwitch, MissingMeterDropsSafely) {
  SwitchTopo t;
  FlowRule rule;
  rule.actions.push_back(ActMeter{"nope"});
  rule.actions.push_back(ActOutput{1});
  t.sw->table(0).add(rule);
  t.left->send(0, udp_packet(t.net, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2),
                             1, 2));
  t.net.sim().run();
  EXPECT_EQ(t.right->received.size(), 0u);
}

// A processor that tags packets (sets tos) and can drop or inject.
class TestProcessor : public PacketProcessor {
 public:
  std::vector<Packet> process(Packet pkt, SimTime, SimDuration& delay) override {
    delay = microseconds(45);
    ++calls;
    if (drop_all) return {};
    pkt.ip.tos = 0x55;
    std::vector<Packet> out;
    out.push_back(std::move(pkt));
    return out;
  }
  int calls = 0;
  bool drop_all = false;
};

TEST(SdnSwitch, MboxActionDivertsAndContinues) {
  SwitchTopo t;
  TestProcessor proc;
  t.sw->register_processor("c1", &proc);
  FlowRule rule;
  rule.actions.push_back(ActMbox{"c1"});
  rule.actions.push_back(ActOutput{1});
  t.sw->table(0).add(rule);
  t.left->send(0, udp_packet(t.net, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2),
                             1, 2));
  t.net.sim().run();
  ASSERT_EQ(t.right->received.size(), 1u);
  EXPECT_EQ(t.right->received[0].ip.tos, 0x55);  // processed
  EXPECT_EQ(proc.calls, 1);
  EXPECT_EQ(t.sw->stats().diverted_mbox, 1u);
}

TEST(SdnSwitch, MboxDropAbsorbsPacket) {
  SwitchTopo t;
  TestProcessor proc;
  proc.drop_all = true;
  t.sw->register_processor("c1", &proc);
  FlowRule rule;
  rule.actions.push_back(ActMbox{"c1"});
  rule.actions.push_back(ActOutput{1});
  t.sw->table(0).add(rule);
  t.left->send(0, udp_packet(t.net, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2),
                             1, 2));
  t.net.sim().run();
  EXPECT_EQ(t.right->received.size(), 0u);
}

TEST(SdnSwitch, MboxDelayIsCharged) {
  SwitchTopo t;
  TestProcessor proc;
  t.sw->register_processor("c1", &proc);
  FlowRule rule;
  rule.actions.push_back(ActMbox{"c1"});
  rule.actions.push_back(ActOutput{1});
  t.sw->table(0).add(rule);

  // With zero link latency/rate-delay, the arrival difference vs a direct
  // rule is the mbox 45us.
  t.left->send(0, udp_packet(t.net, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2),
                             1, 2, 10));
  SimTime arrival = -1;
  t.net.sim().run();
  arrival = t.net.sim().now();
  EXPECT_GE(arrival, microseconds(45));
}

// A TestProcessor that runs `on_enter` as each packet enters the chain and,
// with `twice`, emits a second copy (tos 0x66) after the first.
class HookedProcessor : public TestProcessor {
 public:
  std::vector<Packet> process(Packet pkt, SimTime now,
                              SimDuration& delay) override {
    if (on_enter) on_enter();
    std::vector<Packet> out = TestProcessor::process(std::move(pkt), now, delay);
    if (twice && !out.empty()) {
      Packet copy = out.front();
      copy.ip.tos = 0x66;
      out.push_back(std::move(copy));
    }
    return out;
  }
  std::function<void()> on_enter;
  bool twice = false;
};

// The chain holds each packet for TestProcessor's 45 us; these tests change
// the diverting rule 10 us into that hold. The continuation must run the
// actions of the rule the packet matched, not whatever the table holds now.
struct DeferredTopo : SwitchTopo {
  HookedProcessor proc;

  DeferredTopo() {
    sw->register_processor("c1", &proc);
    FlowRule rule;
    rule.cookie = "pvn:dev";
    rule.actions.push_back(ActMbox{"c1"});
    rule.actions.push_back(ActOutput{1});
    sw->table(0).add(rule);
  }

  // Runs `change` 10 us after a packet enters the chain.
  void change_rule_in_hold(std::function<void()> change) {
    proc.on_enter = [this, change = std::move(change)] {
      net.sim().schedule_after(microseconds(10), change);
    };
  }

  void send_one() {
    left->send(0, udp_packet(net, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2),
                             1, 2));
  }
};

TEST(SdnSwitch, DeferredContinuationSurvivesRuleRemoval) {
  DeferredTopo t;
  t.change_rule_in_hold(
      [&] { EXPECT_EQ(t.sw->table(0).remove_by_cookie("pvn:dev"), 1u); });
  t.send_one();
  t.net.sim().run();
  EXPECT_EQ(t.sw->table(0).size(), 0u);
  ASSERT_EQ(t.right->received.size(), 1u);  // out port 1, exactly once
  EXPECT_EQ(t.right->received[0].ip.tos, 0x55);
  EXPECT_TRUE(t.left->received.empty());
  EXPECT_EQ(t.sw->stats().forwarded, 1u);
}

TEST(SdnSwitch, DeferredContinuationFollowsTheReplacedRule) {
  DeferredTopo t;
  t.change_rule_in_hold([&] {
    t.sw->table(0).remove_by_cookie("pvn:dev");
    FlowRule back;
    back.cookie = "pvn:dev";
    back.actions.push_back(ActOutput{0});
    t.sw->table(0).add(back);
  });
  t.send_one();
  t.net.sim().run();
  ASSERT_EQ(t.right->received.size(), 1u);  // the old rule's port
  EXPECT_TRUE(t.left->received.empty());

  // A packet arriving after the swap follows the new rule.
  t.send_one();
  t.net.sim().run();
  EXPECT_EQ(t.right->received.size(), 1u);
  EXPECT_EQ(t.left->received.size(), 1u);
  EXPECT_EQ(t.proc.calls, 1);
}

TEST(SdnSwitch, DeferredContinuationRunsForEveryEmittedPacketInOrder) {
  DeferredTopo t;
  t.proc.twice = true;
  t.change_rule_in_hold([&] { t.sw->table(0).remove_by_cookie("pvn:dev"); });
  t.send_one();
  t.net.sim().run();
  ASSERT_EQ(t.right->received.size(), 2u);
  EXPECT_EQ(t.right->received[0].ip.tos, 0x55);
  EXPECT_EQ(t.right->received[1].ip.tos, 0x66);
  EXPECT_EQ(t.sw->stats().forwarded, 2u);
  EXPECT_EQ(t.proc.calls, 1);
}

TEST(SdnSwitch, UnregisteredChainDrops) {
  SwitchTopo t;
  FlowRule rule;
  rule.actions.push_back(ActMbox{"ghost"});
  rule.actions.push_back(ActOutput{1});
  t.sw->table(0).add(rule);
  t.left->send(0, udp_packet(t.net, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2),
                             1, 2));
  t.net.sim().run();
  EXPECT_EQ(t.right->received.size(), 0u);
  EXPECT_EQ(t.sw->stats().dropped_rule, 1u);
}

// --- Controller ------------------------------------------------------------------

TEST(Controller, InstallsRulesWithControlDelay) {
  SwitchTopo t;
  Controller ctrl(t.net.sim(), milliseconds(5));
  ctrl.manage(*t.sw);
  bool done = false;
  FlowRule rule;
  rule.actions.push_back(ActOutput{1});
  ctrl.install_rule("sw", 0, rule, [&](bool ok) {
    done = ok;
    EXPECT_EQ(t.net.sim().now(), milliseconds(5));
  });
  t.net.sim().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(t.sw->table(0).size(), 1u);
  EXPECT_EQ(ctrl.rules_installed(), 1u);
}

TEST(Controller, UnknownSwitchFails) {
  SwitchTopo t;
  Controller ctrl(t.net.sim());
  bool result = true;
  ctrl.install_rule("nope", 0, FlowRule{}, [&](bool ok) { result = ok; });
  t.net.sim().run();
  EXPECT_FALSE(result);
}

TEST(Controller, RemoveByCookieSweepsAllTables) {
  SwitchTopo t;
  Controller ctrl(t.net.sim());
  ctrl.manage(*t.sw);
  FlowRule r0;
  r0.cookie = "pvn:x";
  t.sw->table(0).add(r0);
  t.sw->table(1).add(r0);
  std::size_t removed = 0;
  ctrl.remove_by_cookie("pvn:x", [&](std::size_t n) { removed = n; });
  t.net.sim().run();
  EXPECT_EQ(removed, 2u);
}

}  // namespace
}  // namespace pvn

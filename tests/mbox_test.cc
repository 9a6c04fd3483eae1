// Middlebox runtime tests: ClickOS-style resource model, chain semantics,
// each inline DPI module, the TCP-terminating proxies, and the PVN Store.
#include <gtest/gtest.h>

#include "fixtures.h"
#include "mbox/host.h"
#include "mbox/inline_modules.h"
#include "mbox/proxies.h"
#include "mbox/registry.h"
#include "workload/generators.h"

namespace pvn {
namespace {

using testing::DumbbellTopo;

LinkParams quick() {
  LinkParams lp;
  lp.rate = Rate::mbps(100);
  lp.latency = milliseconds(2);
  return lp;
}

Packet http_packet(Network& net, Ipv4Addr src, Ipv4Addr dst,
                   const std::string& payload_text, Port sport = 50000,
                   Port dport = 80) {
  TcpHeader hdr;
  hdr.src_port = sport;
  hdr.dst_port = dport;
  hdr.flags = kTcpAck;
  return net.make_packet(src, dst, IpProto::kTcp,
                         serialize_tcp(hdr, to_bytes(payload_text)));
}

// --- MboxHost resource model ----------------------------------------------------

class NopMbox : public Middlebox {
 public:
  const std::string& name() const override { return name_; }
  Verdict process(Packet&, MboxContext&) override { return Verdict::kForward; }

 private:
  std::string name_ = "nop";
};

// `n` fresh NopMbox modules for MboxHost::build_chain.
std::vector<std::unique_ptr<Middlebox>> nops(int n) {
  std::vector<std::unique_ptr<Middlebox>> modules;
  for (int i = 0; i < n; ++i) modules.push_back(std::make_unique<NopMbox>());
  return modules;
}

TEST(MboxHost, InstantiationChargesClickOsDelay) {
  Simulator sim;
  MboxHost host(sim);
  Chain* got = nullptr;
  SimTime ready_at = -1;
  host.build_chain("c", nops(1), [&](Chain* c) {
    got = c;
    ready_at = sim.now();
  });
  EXPECT_EQ(host.memory_in_use(), 6 * kMiB);  // reserved up front
  sim.run();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(ready_at, milliseconds(30));  // the [24] number
  EXPECT_EQ(host.chain("c"), got);
  EXPECT_EQ(got->modules().size(), 1u);
  EXPECT_EQ(host.memory_in_use(), 6 * kMiB);
  EXPECT_EQ(host.instances(), 1);
}

TEST(MboxHost, MemoryBudgetRejectsOverflow) {
  Simulator sim;
  MboxHostConfig cfg;
  cfg.memory_budget = 12 * kMiB;  // room for exactly 2 instances
  MboxHost host(sim, cfg);
  int ok = 0, failed = 0;
  for (int i = 0; i < 3; ++i) {
    host.build_chain(std::to_string(i), nops(1), [&](Chain* c) {
      (c != nullptr ? ok : failed) += 1;
    });
  }
  sim.run();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(host.chain("2"), nullptr);
}

TEST(MboxHost, DestroyReleasesMemory) {
  Simulator sim;
  MboxHost host(sim);
  host.build_chain("c", nops(2), [](Chain*) {});
  sim.run();
  ASSERT_EQ(host.memory_in_use(), 12 * kMiB);
  EXPECT_TRUE(host.destroy_chain("c"));
  EXPECT_EQ(host.memory_in_use(), 0);
  EXPECT_EQ(host.instances(), 0);
  EXPECT_EQ(host.chain("c"), nullptr);
  EXPECT_FALSE(host.destroy_chain("c"));
}

// A chain that runs out of memory at module k fails at that instant, once;
// the k-1 modules reserved before it are released when they land.
TEST(MboxHost, BuildOutOfMemoryFailsOnceAndReleasesWhatLanded) {
  Simulator sim;
  MboxHostConfig cfg;
  cfg.memory_budget = 24 * kMiB;  // 4 instances
  MboxHost host(sim, cfg);
  host.build_chain("base", nops(1), [](Chain*) {});
  sim.run();
  const std::int64_t before = host.memory_in_use();
  ASSERT_EQ(before, 6 * kMiB);

  int calls = 0;
  Chain* got = nullptr;
  SimTime failed_at = -1;
  const SimTime start = sim.now();
  host.build_chain("big", nops(5), [&](Chain* c) {  // module 4 does not fit
    ++calls;
    got = c;
    failed_at = sim.now();
  });
  sim.run_until(start + milliseconds(1));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(got, nullptr);
  EXPECT_EQ(failed_at, start);
  EXPECT_EQ(host.memory_in_use(), 24 * kMiB);  // modules 1-3 still landing
  sim.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(host.memory_in_use(), before);
  EXPECT_EQ(host.instances(), 1);
  EXPECT_EQ(host.chain("big"), nullptr);
  EXPECT_NE(host.chain("base"), nullptr);
}

// A crash mid-build fails the build once, when its modules land, and a
// build started after the restart keeps the memory it reserved.
TEST(MboxHost, CrashMidBuildFiresDoneOnce) {
  Simulator sim;
  MboxHost host(sim);
  int calls = 0;
  Chain* got = nullptr;
  host.build_chain("c", nops(3), [&](Chain* c) {
    ++calls;
    got = c;
  });
  sim.run_until(milliseconds(10));
  host.crash();
  EXPECT_EQ(host.memory_in_use(), 0);
  EXPECT_EQ(calls, 0);
  host.restart();
  Chain* after = nullptr;
  host.build_chain("after", nops(1), [&](Chain* c) { after = c; });
  sim.run_until(milliseconds(31));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(got, nullptr);
  EXPECT_EQ(host.chain("c"), nullptr);
  EXPECT_EQ(host.memory_in_use(), 6 * kMiB);  // "after"'s reservation
  sim.run();
  EXPECT_EQ(calls, 1);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(host.memory_in_use(), 6 * kMiB);
  EXPECT_EQ(host.instances(), 1);
}

TEST(MboxHost, DestroyChainAfterCrashReturnsFalse) {
  Simulator sim;
  MboxHost host(sim);
  host.build_chain("c", nops(2), [](Chain*) {});
  sim.run();
  ASSERT_NE(host.chain("c"), nullptr);
  host.crash();
  EXPECT_EQ(host.chain("c"), nullptr);
  EXPECT_FALSE(host.destroy_chain("c"));
  EXPECT_EQ(host.memory_in_use(), 0);
  EXPECT_EQ(host.instances(), 0);
}

// The mbox.host.* gauges carry no instance label, so they must sum over the
// live hosts instead of showing whichever host wrote them last.
TEST(MboxHost, GaugesSumOverLiveHosts) {
  auto& reg = telemetry::MetricsRegistry::global();
  const telemetry::Gauge& instances = reg.gauge("mbox.host.instances");
  const telemetry::Gauge& memory = reg.gauge("mbox.host.memory_in_use");
  const std::int64_t instances0 = instances.value();
  const std::int64_t memory0 = memory.value();
  Simulator sim;
  {
    MboxHost a(sim);
    MboxHost b(sim);
    a.build_chain("a", nops(1), [](Chain*) {});
    b.build_chain("b1", nops(1), [](Chain*) {});
    b.build_chain("b2", nops(1), [](Chain*) {});
    sim.run();
    EXPECT_EQ(instances.value() - instances0, 3);
    EXPECT_EQ(memory.value() - memory0, 18 * kMiB);
    a.crash();
    EXPECT_EQ(instances.value() - instances0, 2);
    EXPECT_EQ(memory.value() - memory0, 12 * kMiB);
    ASSERT_TRUE(b.destroy_chain("b1"));
    EXPECT_EQ(instances.value() - instances0, 1);
    EXPECT_EQ(memory.value() - memory0, 6 * kMiB);
  }
  EXPECT_EQ(instances.value(), instances0);
  EXPECT_EQ(memory.value(), memory0);
}

TEST(Chain, ChargesBasePlusModuleDelay) {
  Simulator sim;
  MboxHost host(sim);
  Chain& chain = host.create_chain("c");
  NopMbox nop;
  chain.append(&nop);
  SimDuration delay = 0;
  Network net;
  Packet pkt = http_packet(net, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2),
                           "x");
  const auto out = chain.process(std::move(pkt), 0, delay);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(delay, microseconds(45));  // base ClickOS per-packet cost
  EXPECT_EQ(nop.packets_seen, 1u);
}

// --- PiiDetector -------------------------------------------------------------------

TEST(PiiDetector, MonitorsWithoutBlocking) {
  Network net;
  PiiDetector detector({"imei=123456", "lat="}, PiiAction::kMonitor);
  std::vector<MboxFinding> findings;
  MboxContext ctx;
  ctx.findings = &findings;
  Packet pkt = http_packet(net, Ipv4Addr(10, 0, 0, 2), Ipv4Addr(6, 6, 6, 6),
                           "POST /c HTTP/1.1\r\n\r\nimei=123456&lat=42.1");
  EXPECT_EQ(detector.process(pkt, ctx), Middlebox::Verdict::kForward);
  EXPECT_EQ(detector.leaks_found(), 2u);
  EXPECT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].kind, "pii-leak");
}

TEST(PiiDetector, BlockDropsLeakyPacket) {
  Network net;
  PiiDetector detector({"password="}, PiiAction::kBlock);
  MboxContext ctx;
  Packet pkt = http_packet(net, Ipv4Addr(10, 0, 0, 2), Ipv4Addr(6, 6, 6, 6),
                           "user=bob&password=hunter2");
  EXPECT_EQ(detector.process(pkt, ctx), Middlebox::Verdict::kDrop);
}

TEST(PiiDetector, ScrubReplacesInPlace) {
  Network net;
  PiiDetector detector({"hunter2"}, PiiAction::kScrub);
  MboxContext ctx;
  Packet pkt = http_packet(net, Ipv4Addr(10, 0, 0, 2), Ipv4Addr(6, 6, 6, 6),
                           "password=hunter2&x=1");
  const std::size_t before = pkt.size();
  EXPECT_EQ(detector.process(pkt, ctx), Middlebox::Verdict::kForward);
  EXPECT_EQ(pkt.size(), before);  // scrubbing never changes sizes
  EXPECT_FALSE(payload_contains(pkt.l4, "hunter2"));
  EXPECT_TRUE(payload_contains(pkt.l4, "xxxxxxx"));
}

TEST(PiiDetector, CleanTrafficUntouched) {
  Network net;
  PiiDetector detector({"password="}, PiiAction::kBlock);
  MboxContext ctx;
  Packet pkt = http_packet(net, Ipv4Addr(10, 0, 0, 2), Ipv4Addr(6, 6, 6, 6),
                           "GET /index.html HTTP/1.1\r\n\r\n");
  EXPECT_EQ(detector.process(pkt, ctx), Middlebox::Verdict::kForward);
  EXPECT_EQ(detector.leaks_found(), 0u);
}

// --- TrackerBlocker -----------------------------------------------------------------

TEST(TrackerBlocker, DropsOnlyTrackerDestinations) {
  Network net;
  TrackerBlocker blocker({Ipv4Addr(6, 6, 6, 6)});
  MboxContext ctx;
  Packet to_tracker = http_packet(net, Ipv4Addr(10, 0, 0, 2),
                                  Ipv4Addr(6, 6, 6, 6), "beacon");
  Packet to_server = http_packet(net, Ipv4Addr(10, 0, 0, 2),
                                 Ipv4Addr(93, 184, 216, 34), "page");
  EXPECT_EQ(blocker.process(to_tracker, ctx), Middlebox::Verdict::kDrop);
  EXPECT_EQ(blocker.process(to_server, ctx), Middlebox::Verdict::kForward);
  EXPECT_EQ(blocker.blocked(), 1u);
}

// --- TlsValidator -------------------------------------------------------------------

// The validator reads the ports before it parses a segment. Every prefix of
// a port-443 SYN too short to parse, and a whole segment on another port, is
// forwarded and leaves the state a fresh validator has.
TEST(TlsValidator, ShortOrOtherPortSegmentsLeaveNoState) {
  Network net;
  TrustStore trust;
  TlsValidator validator(trust, EnforcementMode::kBlock);
  const Bytes fresh = validator.serialize_state();
  MboxContext ctx;
  TcpHeader syn;
  syn.src_port = 50000;
  syn.dst_port = 443;
  syn.flags = kTcpSyn;
  const Bytes wire = serialize_tcp(syn, {});
  const auto packet = [&](Bytes l4) {
    return net.make_packet(Ipv4Addr(10, 0, 0, 2), Ipv4Addr(93, 184, 216, 34),
                           IpProto::kTcp, std::move(l4));
  };
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    Packet pkt = packet(Bytes(wire.begin(),
                              wire.begin() + static_cast<std::ptrdiff_t>(cut)));
    EXPECT_EQ(validator.process(pkt, ctx), Middlebox::Verdict::kForward) << cut;
    EXPECT_EQ(validator.serialize_state(), fresh) << cut;
  }
  Packet other = http_packet(net, Ipv4Addr(10, 0, 0, 2),
                             Ipv4Addr(93, 184, 216, 34), "not tls", 50000, 8443);
  EXPECT_EQ(validator.process(other, ctx), Middlebox::Verdict::kForward);
  EXPECT_EQ(validator.serialize_state(), fresh);

  Packet whole = packet(wire);  // the whole SYN starts tracking its flow
  EXPECT_EQ(validator.process(whole, ctx), Middlebox::Verdict::kForward);
  EXPECT_NE(validator.serialize_state(), fresh);
}

// A length prefix within 4 of 2^32 used to wrap the reassembler's bounds
// check and read ~4 GiB past the flow buffer: one 6-byte payload crashed
// the chain. The frame is incomplete, so the segment is simply forwarded.
TEST(TlsValidator, NearMaxLengthPrefixWaitsForItsBytes) {
  Network net;
  TrustStore trust;
  TlsValidator validator(trust, EnforcementMode::kBlock);
  MboxContext ctx;
  TcpHeader hdr;
  hdr.src_port = 50000;
  hdr.dst_port = 443;
  hdr.seq = 1000;
  hdr.flags = kTcpSyn;
  const auto packet = [&](const Bytes& payload) {
    return net.make_packet(Ipv4Addr(10, 0, 0, 2), Ipv4Addr(93, 184, 216, 34),
                           IpProto::kTcp, serialize_tcp(hdr, payload));
  };
  Packet syn = packet({});
  EXPECT_EQ(validator.process(syn, ctx), Middlebox::Verdict::kForward);
  hdr.seq = 1001;
  hdr.flags = kTcpAck;
  Packet crafted = packet({0xFF, 0xFF, 0xFF, 0xFD, 'x', 'y'});
  EXPECT_EQ(validator.process(crafted, ctx), Middlebox::Verdict::kForward);
}

// --- MalwareDetector ----------------------------------------------------------------

TEST(MalwareDetector, BlocksSignatureHit) {
  Network net;
  MalwareDetector detector({to_bytes("EVIL_SHELLCODE")},
                           EnforcementMode::kBlock);
  MboxContext ctx;
  Packet bad = http_packet(net, Ipv4Addr(66, 0, 0, 1), Ipv4Addr(10, 0, 0, 2),
                           "prefix EVIL_SHELLCODE suffix");
  Packet good = http_packet(net, Ipv4Addr(8, 8, 8, 8), Ipv4Addr(10, 0, 0, 2),
                            "regular content");
  EXPECT_EQ(detector.process(bad, ctx), Middlebox::Verdict::kDrop);
  EXPECT_EQ(detector.process(good, ctx), Middlebox::Verdict::kForward);
  EXPECT_EQ(detector.detections(), 1u);
}

TEST(MalwareDetector, WarnModeForwardsButReports) {
  Network net;
  MalwareDetector detector({to_bytes("EVIL")}, EnforcementMode::kWarn);
  std::vector<MboxFinding> findings;
  MboxContext ctx;
  ctx.findings = &findings;
  Packet bad = http_packet(net, Ipv4Addr(66, 0, 0, 1), Ipv4Addr(10, 0, 0, 2),
                           "EVIL");
  EXPECT_EQ(detector.process(bad, ctx), Middlebox::Verdict::kForward);
  EXPECT_EQ(findings.size(), 1u);
}

// --- Classifier --------------------------------------------------------------------

TEST(Classifier, MarksFlowOnContentTypeAndRemembersIt) {
  Network net;
  Classifier classifier({{"Content-Type: video", 0x20}});
  MboxContext ctx;
  // First packet of the response carries the header.
  Packet response = http_packet(net, Ipv4Addr(93, 184, 216, 34),
                                Ipv4Addr(10, 0, 0, 2),
                                "HTTP/1.1 200 OK\r\nContent-Type: video/mp4\r\n\r\n",
                                80, 50000);
  classifier.process(response, ctx);
  EXPECT_EQ(response.ip.tos, 0x20);
  // Subsequent body packets of the same flow carry no header but get marked.
  Packet body = http_packet(net, Ipv4Addr(93, 184, 216, 34),
                            Ipv4Addr(10, 0, 0, 2), "raw video bytes", 80,
                            50000);
  classifier.process(body, ctx);
  EXPECT_EQ(body.ip.tos, 0x20);
  // Reverse direction (ACKs) too.
  Packet ack = http_packet(net, Ipv4Addr(10, 0, 0, 2),
                           Ipv4Addr(93, 184, 216, 34), "", 50000, 80);
  classifier.process(ack, ctx);
  EXPECT_EQ(ack.ip.tos, 0x20);
  EXPECT_EQ(classifier.flows_classified(), 1u);
}

TEST(Classifier, UnmatchedTrafficKeepsTos) {
  Network net;
  Classifier classifier({{"Content-Type: video", 0x20}});
  MboxContext ctx;
  Packet text = http_packet(net, Ipv4Addr(93, 184, 216, 34),
                            Ipv4Addr(10, 0, 0, 2),
                            "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n",
                            80, 50001);
  classifier.process(text, ctx);
  EXPECT_EQ(text.ip.tos, 0);
}

// --- DnsValidator -------------------------------------------------------------------

TEST(DnsValidator, BlocksForgedSignedRecord) {
  Network net;
  KeyPair zone(1), attacker(2);
  KeyRegistry trusted;
  trusted.trust(zone);

  DnsRecord forged;
  forged.name = "bank.example";
  forged.addr = Ipv4Addr(66, 6, 6, 6);
  forged.signed_record = true;
  forged.signature = attacker.sign(forged.canonical_bytes());
  DnsMessage msg;
  msg.response = true;
  msg.question = forged.name;
  msg.answers.push_back(forged);

  UdpHeader hdr;
  hdr.src_port = kDnsPort;
  hdr.dst_port = 5353;
  Packet pkt = net.make_packet(Ipv4Addr(8, 8, 8, 8), Ipv4Addr(10, 0, 0, 2),
                               IpProto::kUdp, serialize_udp(hdr, msg.encode()));

  DnsValidator validator(&trusted, zone.public_key(), {},
                         EnforcementMode::kBlock);
  std::vector<MboxFinding> findings;
  MboxContext ctx;
  ctx.findings = &findings;
  EXPECT_EQ(validator.process(pkt, ctx), Middlebox::Verdict::kDrop);
  EXPECT_EQ(findings.at(0).kind, "dns-forgery");
}

TEST(DnsValidator, PinMismatchBlocked) {
  Network net;
  DnsRecord rec;
  rec.name = "bank.example";
  rec.addr = Ipv4Addr(66, 6, 6, 6);
  DnsMessage msg;
  msg.response = true;
  msg.question = rec.name;
  msg.answers.push_back(rec);
  UdpHeader hdr;
  hdr.src_port = kDnsPort;
  hdr.dst_port = 5353;
  Packet pkt = net.make_packet(Ipv4Addr(8, 8, 8, 8), Ipv4Addr(10, 0, 0, 2),
                               IpProto::kUdp, serialize_udp(hdr, msg.encode()));
  DnsValidator validator(nullptr, PublicKey{},
                         {{"bank.example", Ipv4Addr(93, 184, 216, 34)}},
                         EnforcementMode::kBlock);
  MboxContext ctx;
  EXPECT_EQ(validator.process(pkt, ctx), Middlebox::Verdict::kDrop);
}

TEST(DnsValidator, HonestAnswerPasses) {
  Network net;
  KeyPair zone(1);
  KeyRegistry trusted;
  trusted.trust(zone);
  DnsRecord rec;
  rec.name = "bank.example";
  rec.addr = Ipv4Addr(93, 184, 216, 34);
  rec.signed_record = true;
  rec.signature = zone.sign(rec.canonical_bytes());
  DnsMessage msg;
  msg.response = true;
  msg.question = rec.name;
  msg.answers.push_back(rec);
  UdpHeader hdr;
  hdr.src_port = kDnsPort;
  hdr.dst_port = 5353;
  Packet pkt = net.make_packet(Ipv4Addr(8, 8, 8, 8), Ipv4Addr(10, 0, 0, 2),
                               IpProto::kUdp, serialize_udp(hdr, msg.encode()));
  DnsValidator validator(&trusted, zone.public_key(), {},
                         EnforcementMode::kBlock);
  MboxContext ctx;
  EXPECT_EQ(validator.process(pkt, ctx), Middlebox::Verdict::kForward);
  EXPECT_EQ(validator.responses_blocked(), 0u);
}

// --- ReplicaSelector ----------------------------------------------------------------

Packet dns_response_packet(Network& net, const std::string& name,
                           Ipv4Addr answer, bool sign_with_key,
                           const KeyPair* key) {
  DnsRecord rec;
  rec.name = name;
  rec.addr = answer;
  if (sign_with_key && key != nullptr) {
    rec.signed_record = true;
    rec.signature = key->sign(rec.canonical_bytes());
  }
  DnsMessage msg;
  msg.response = true;
  msg.question = name;
  msg.answers.push_back(rec);
  UdpHeader hdr;
  hdr.src_port = kDnsPort;
  hdr.dst_port = 5353;
  return net.make_packet(Ipv4Addr(8, 8, 8, 8), Ipv4Addr(10, 0, 0, 2),
                         IpProto::kUdp, serialize_udp(hdr, msg.encode()));
}

TEST(ReplicaSelector, RewritesToNearestReplica) {
  Network net;
  const Ipv4Addr near_replica(93, 184, 216, 34);
  const Ipv4Addr far_replica(93, 184, 216, 35);
  ReplicaSelector selector(
      {{"cdn.example", ReplicaSelector::Service{{near_replica, far_replica}}}},
      {{near_replica, milliseconds(15)}, {far_replica, milliseconds(90)}});
  EXPECT_EQ(selector.best_replica("cdn.example"), near_replica);

  Packet pkt = dns_response_packet(net, "cdn.example", far_replica, false,
                                   nullptr);
  std::vector<MboxFinding> findings;
  MboxContext ctx;
  ctx.findings = &findings;
  EXPECT_EQ(selector.process(pkt, ctx), Middlebox::Verdict::kForward);
  const auto dg = parse_udp(pkt.l4);
  ASSERT_TRUE(dg.has_value());
  const auto msg = DnsMessage::decode(dg->payload);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->answers.at(0).addr, near_replica);  // rewritten
  EXPECT_EQ(selector.rewrites(), 1u);
  EXPECT_EQ(findings.at(0).kind, "replica-rewrite");
}

TEST(ReplicaSelector, NeverTouchesSignedAnswers) {
  Network net;
  KeyPair zone(5);
  const Ipv4Addr near_replica(93, 184, 216, 34);
  const Ipv4Addr far_replica(93, 184, 216, 35);
  ReplicaSelector selector(
      {{"cdn.example", ReplicaSelector::Service{{near_replica, far_replica}}}},
      {{near_replica, milliseconds(15)}, {far_replica, milliseconds(90)}});
  Packet pkt = dns_response_packet(net, "cdn.example", far_replica, true,
                                   &zone);
  MboxContext ctx;
  selector.process(pkt, ctx);
  const auto msg = DnsMessage::decode(parse_udp(pkt.l4)->payload);
  EXPECT_EQ(msg->answers.at(0).addr, far_replica);  // untouched
  EXPECT_EQ(selector.rewrites(), 0u);
}

TEST(ReplicaSelector, IgnoresUnknownServicesAndAlreadyBest) {
  Network net;
  const Ipv4Addr near_replica(93, 184, 216, 34);
  ReplicaSelector selector(
      {{"cdn.example", ReplicaSelector::Service{{near_replica}}}},
      {{near_replica, milliseconds(15)}});
  Packet other = dns_response_packet(net, "other.example",
                                     Ipv4Addr(5, 5, 5, 5), false, nullptr);
  Packet already = dns_response_packet(net, "cdn.example", near_replica,
                                       false, nullptr);
  MboxContext ctx;
  selector.process(other, ctx);
  selector.process(already, ctx);
  EXPECT_EQ(selector.rewrites(), 0u);
  EXPECT_EQ(selector.best_replica("missing").is_unspecified(), true);
}

// --- SplitTcpProxy ------------------------------------------------------------------

TEST(SplitTcpProxy, BridgesHttpEndToEnd) {
  // client -- router -- proxy ...(proxy re-originates)... server
  Network net;
  auto& client = net.add_node<Host>("client", Ipv4Addr(10, 0, 0, 2));
  auto& server = net.add_node<Host>("server", Ipv4Addr(93, 184, 216, 34));
  auto& proxy = net.add_node<SplitTcpProxy>(
      "proxy", Ipv4Addr(10, 0, 0, 10), Ipv4Addr(93, 184, 216, 34), Port{80},
      Port{8080});
  auto& router = net.add_node<Router>("router");
  net.connect(client, router, quick());
  net.connect(proxy, router, quick());
  net.connect(server, router, quick());
  router.add_route(*Prefix::parse("10.0.0.2"), 0);
  router.add_route(*Prefix::parse("10.0.0.10"), 1);
  router.add_route(*Prefix::parse("0.0.0.0/0"), 2);

  HttpServer http_server(server);
  HttpClient http_client(client);
  FetchTiming timing;
  std::size_t got = 0;
  http_client.fetch(proxy.addr(), 8080, "/bytes/100000",
                    [&](const HttpResponse& resp, const FetchTiming& t) {
                      timing = t;
                      got = resp.body.size();
                    });
  net.sim().run();
  EXPECT_TRUE(timing.ok);
  EXPECT_EQ(got, 100000u);
  EXPECT_EQ(proxy.connections_bridged(), 1u);
  EXPECT_GT(proxy.bytes_downstream(), 100000u);
}

// --- TranscodingProxy ---------------------------------------------------------------

TEST(TranscodingProxy, ShrinksVideoBodies) {
  Network net;
  auto& client = net.add_node<Host>("client", Ipv4Addr(10, 0, 0, 2));
  auto& server = net.add_node<Host>("server", Ipv4Addr(93, 184, 216, 34));
  auto& proxy = net.add_node<TranscodingProxy>(
      "proxy", Ipv4Addr(10, 0, 0, 10), Ipv4Addr(93, 184, 216, 34), Port{8080});
  auto& router = net.add_node<Router>("router");
  net.connect(client, router, quick());
  net.connect(proxy, router, quick());
  net.connect(server, router, quick());
  router.add_route(*Prefix::parse("10.0.0.2"), 0);
  router.add_route(*Prefix::parse("10.0.0.10"), 1);
  router.add_route(*Prefix::parse("0.0.0.0/0"), 2);

  HttpServer http_server(server);
  install_video_server(http_server, 200000);

  HttpClient http_client(client);
  std::size_t video_size = 0, text_size = 0;
  bool video_transcoded = false;
  http_client.fetch(proxy.addr(), 8080, "/video/seg-0",
                    [&](const HttpResponse& resp, const FetchTiming&) {
                      video_size = resp.body.size();
                      video_transcoded = resp.header("X-Transcoded") != nullptr;
                    });
  net.sim().run();
  http_client.fetch(proxy.addr(), 8080, "/bytes/50000",
                    [&](const HttpResponse& resp, const FetchTiming&) {
                      text_size = resp.body.size();
                    });
  net.sim().run();
  EXPECT_TRUE(video_transcoded);
  EXPECT_EQ(video_size, 80000u);  // 40% of 200000
  EXPECT_EQ(text_size, 50000u);   // non-video untouched
  EXPECT_EQ(proxy.responses_transcoded(), 1u);
  EXPECT_EQ(proxy.bytes_saved(), 120000u);
}

// --- PrefetchingProxy ---------------------------------------------------------------

TEST(PrefetchingProxy, CacheHitIsFasterAndSavesOriginFetches) {
  Network net;
  auto& client = net.add_node<Host>("client", Ipv4Addr(10, 0, 0, 2));
  auto& server = net.add_node<Host>("server", Ipv4Addr(93, 184, 216, 34));
  auto& proxy = net.add_node<PrefetchingProxy>(
      "proxy", Ipv4Addr(10, 0, 0, 10), Ipv4Addr(93, 184, 216, 34), Port{8081});
  auto& router = net.add_node<Router>("router");
  LinkParams near = quick();
  LinkParams far = quick();
  far.latency = milliseconds(60);  // origin is far away
  net.connect(client, router, near);
  net.connect(proxy, router, near);
  net.connect(server, router, far);
  router.add_route(*Prefix::parse("10.0.0.2"), 0);
  router.add_route(*Prefix::parse("10.0.0.10"), 1);
  router.add_route(*Prefix::parse("0.0.0.0/0"), 2);

  HttpServer http_server(server);
  proxy.prefetch({"/bytes/20000"});
  net.sim().run();
  EXPECT_EQ(proxy.cached_entries(), 1u);

  HttpClient http_client(client);
  SimDuration hit_time = 0, miss_time = 0;
  http_client.fetch(proxy.addr(), 8081, "/bytes/20000",
                    [&](const HttpResponse&, const FetchTiming& t) {
                      hit_time = t.total();
                    });
  net.sim().run();
  http_client.fetch(proxy.addr(), 8081, "/bytes/20001",
                    [&](const HttpResponse&, const FetchTiming& t) {
                      miss_time = t.total();
                    });
  net.sim().run();
  EXPECT_EQ(proxy.cache_hits(), 1u);
  EXPECT_EQ(proxy.cache_misses(), 1u);
  EXPECT_LT(hit_time, miss_time);  // cache hit avoids the far origin
}

// --- PvnStore -----------------------------------------------------------------------

TEST(PvnStore, CatalogPricingAndInstantiation) {
  StoreEnvironment env;
  env.pii_patterns = {"password="};
  env.tracker_addrs = {Ipv4Addr(6, 6, 6, 6)};
  const PvnStore store = make_standard_store(env);
  EXPECT_TRUE(store.has("pii-detector"));
  EXPECT_TRUE(store.has("tracker-blocker"));
  EXPECT_TRUE(store.has("classifier"));
  EXPECT_FALSE(store.has("tls-validator"));  // no trust store provided
  EXPECT_FALSE(store.has("no-such-module"));

  const double price = store.price_of({"pii-detector", "tracker-blocker"});
  EXPECT_DOUBLE_EQ(price, 1.10);

  auto pii = store.make("pii-detector", {{"action", "monitor"}});
  ASSERT_NE(pii, nullptr);
  EXPECT_EQ(pii->name(), "pii-detector");
  EXPECT_EQ(store.make("ghost", {}), nullptr);
  EXPECT_GE(store.catalog().size(), 4u);
}

}  // namespace
}  // namespace pvn

// Tests for the tunnel substrate (ESP-lite, VPN gateway NAT, locator) and
// the auditor (attestation, path proofs, active measurements, reputation).
#include <gtest/gtest.h>

#include "audit/attestation.h"
#include "audit/path_proof.h"
#include "testbed/testbed.h"
#include "tunnel/locator.h"

namespace pvn {
namespace {

// --- ESP ---------------------------------------------------------------------

TEST(Esp, EncapDecapRoundTrip) {
  Network net;
  const Bytes key = to_bytes("k");
  Packet inner = net.make_packet(Ipv4Addr(10, 0, 0, 2), Ipv4Addr(1, 2, 3, 4),
                                 IpProto::kUdp, Bytes(100, 0x42));
  inner.ip.tos = 0x20;
  const Packet outer = esp_encap(inner, Ipv4Addr(10, 0, 0, 1),
                                 Ipv4Addr(203, 0, 113, 5), key, 1, 7);
  EXPECT_EQ(outer.ip.proto, IpProto::kEsp);
  EXPECT_EQ(outer.ip.dst, Ipv4Addr(203, 0, 113, 5));
  EXPECT_EQ(outer.ip.tos, 0);  // inner class hidden
  EXPECT_GT(outer.size(), inner.size());

  const auto back = esp_decap(outer, key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->ip.src, inner.ip.src);
  EXPECT_EQ(back->ip.dst, inner.ip.dst);
  EXPECT_EQ(back->ip.tos, 0x20);
  EXPECT_EQ(back->l4, inner.l4);
  EXPECT_EQ(esp_peek_spi(outer), 1u);
}

TEST(Esp, RoundTripKeepsOutOfBandFields) {
  // The simulation-only fields ride through encap and decap: the packet's
  // id, creation time, hop trace and causal trace id.
  Network net;
  const Bytes key = to_bytes("k");
  Packet inner = net.make_packet(Ipv4Addr(10, 0, 0, 2), Ipv4Addr(1, 2, 3, 4),
                                 IpProto::kTcp, Bytes(100, 0x42));
  inner.created_at = milliseconds(7);
  inner.trace_id = 42;
  for (const char* hop : {"client", "access-sw"}) {
    inner.hop_trace.record(net.names(), net.names().intern(hop));
  }
  const Packet sent = inner;

  const auto back = esp_decap(esp_encap(std::move(inner), Ipv4Addr(10, 0, 0, 1),
                                        Ipv4Addr(203, 0, 113, 5), key, 1, 1),
                              key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->id, sent.id);
  EXPECT_EQ(back->created_at, sent.created_at);
  EXPECT_EQ(back->hop_trace, sent.hop_trace);
  EXPECT_EQ(back->hop_trace.strings(),
            (std::vector<std::string>{"client", "access-sw"}));
  EXPECT_EQ(back->trace_id, 42u);
}

TEST(Esp, WrongKeyOrTamperFailsAuth) {
  Network net;
  Packet inner = net.make_packet(Ipv4Addr(10, 0, 0, 2), Ipv4Addr(1, 2, 3, 4),
                                 IpProto::kUdp, Bytes(50, 0x42));
  Packet outer = esp_encap(inner, Ipv4Addr(10, 0, 0, 1),
                           Ipv4Addr(203, 0, 113, 5), to_bytes("k"), 1, 1);
  EXPECT_FALSE(esp_decap(outer, to_bytes("wrong")).has_value());
  outer.l4[12] ^= 0xFF;
  EXPECT_FALSE(esp_decap(outer, to_bytes("k")).has_value());
  // Non-ESP packets are rejected outright.
  EXPECT_FALSE(esp_decap(inner, to_bytes("k")).has_value());
}

// --- VPN end-to-end through the testbed cloud gateway --------------------------

TEST(Vpn, TunneledHttpFetchWorksEndToEnd) {
  // Insert a TunnelIngress between client and switch by building a custom
  // mini-topology: client - ingress - wan - {gateway, server}.
  Network net;
  auto& client = net.add_node<Host>("client", Ipv4Addr(10, 0, 0, 2));
  auto& ingress = net.add_node<TunnelIngress>(
      "ingress", Ipv4Addr(10, 0, 0, 1), Ipv4Addr(203, 0, 113, 5),
      to_bytes("vpnkey"));
  auto& wan = net.add_node<Router>("wan");
  auto& gateway = net.add_node<VpnGateway>("gw", Ipv4Addr(203, 0, 113, 5),
                                           to_bytes("vpnkey"));
  auto& server = net.add_node<Host>("server", Ipv4Addr(93, 184, 216, 34));
  net.connect(client, ingress);   // ingress port 0
  net.connect(ingress, wan);      // ingress port 1, wan port 0
  net.connect(wan, gateway);      // wan port 1
  net.connect(wan, server);       // wan port 2
  wan.add_route(*Prefix::parse("10.0.0.0/24"), 0);
  wan.add_route(*Prefix::parse("203.0.113.5"), 1);
  wan.add_route(*Prefix::parse("0.0.0.0/0"), 2);

  HttpServer http_server(server);
  HttpClient http(client);
  FetchTiming timing;
  http.fetch(server.addr(), 80, "/bytes/40000",
             [&](const HttpResponse&, const FetchTiming& t) { timing = t; });
  net.sim().run();
  EXPECT_TRUE(timing.ok);
  EXPECT_GT(ingress.tunneled(), 0u);
  EXPECT_GT(gateway.decapsulated(), 0u);
  EXPECT_GT(gateway.reencapsulated(), 0u);
  EXPECT_EQ(gateway.auth_failures(), 0u);
  // The server saw the gateway, not the client (privacy from the access
  // network's vantage point).
  EXPECT_GT(server.rsts_sent() + 1, 0u);  // server reachable
}

TEST(Vpn, SelectiveRedirectionOnlyTunnelsSelectedFlows) {
  Network net;
  auto& client = net.add_node<Host>("client", Ipv4Addr(10, 0, 0, 2));
  auto& ingress = net.add_node<TunnelIngress>(
      "ingress", Ipv4Addr(10, 0, 0, 1), Ipv4Addr(203, 0, 113, 5),
      to_bytes("vpnkey"));
  auto& wan = net.add_node<Router>("wan");
  auto& gateway = net.add_node<VpnGateway>("gw", Ipv4Addr(203, 0, 113, 5),
                                           to_bytes("vpnkey"));
  auto& server = net.add_node<Host>("server", Ipv4Addr(93, 184, 216, 34));
  net.connect(client, ingress);
  net.connect(ingress, wan);
  net.connect(wan, gateway);
  net.connect(wan, server);
  wan.add_route(*Prefix::parse("10.0.0.0/24"), 0);
  wan.add_route(*Prefix::parse("203.0.113.5"), 1);
  wan.add_route(*Prefix::parse("0.0.0.0/0"), 2);

  // Only port-443 flows are redirected (Fig. 1c: TLS interception needs the
  // trusted cloud environment).
  ingress.set_selector([](const Packet& pkt) {
    Port sp = 0, dp = 0;
    if (!peek_ports(static_cast<std::uint8_t>(pkt.ip.proto), pkt.l4, sp, dp)) {
      return false;
    }
    return dp == 443 || sp == 443;
  });

  int got80 = 0, got443 = 0;
  server.bind_udp(80, [&](Ipv4Addr, Port, Port, const Bytes&) { ++got80; });
  server.bind_udp(443, [&](Ipv4Addr, Port, Port, const Bytes&) { ++got443; });
  client.send_udp(server.addr(), 1111, 80, Bytes(10, 1));
  client.send_udp(server.addr(), 1111, 443, Bytes(10, 2));
  net.sim().run();
  EXPECT_EQ(got80, 1);
  EXPECT_EQ(got443, 1);
  EXPECT_EQ(ingress.tunneled(), 1u);
  EXPECT_EQ(ingress.bypassed(), 1u);
  EXPECT_EQ(gateway.decapsulated(), 1u);
}

// --- Locator -------------------------------------------------------------------

TEST(Locator, RanksCandidatesByRtt) {
  Network net;
  auto& client = net.add_node<Host>("client", Ipv4Addr(10, 0, 0, 2));
  auto& wan = net.add_node<Router>("wan");
  auto& near_host = net.add_node<Host>("near", Ipv4Addr(20, 0, 0, 1));
  auto& far_host = net.add_node<Host>("far", Ipv4Addr(30, 0, 0, 1));
  LinkParams near_link, far_link;
  near_link.latency = milliseconds(5);
  far_link.latency = milliseconds(60);
  net.connect(client, wan);
  net.connect(wan, near_host, near_link);
  net.connect(wan, far_host, far_link);
  wan.add_route(*Prefix::parse("10.0.0.0/8"), 0);
  wan.add_route(*Prefix::parse("20.0.0.0/8"), 1);
  wan.add_route(*Prefix::parse("30.0.0.0/8"), 2);
  install_echo_responder(near_host);
  install_echo_responder(far_host);

  RemotePvnLocator locator(client);
  std::vector<ProbeResult> results;
  locator.probe(
      {far_host.addr(), near_host.addr(), Ipv4Addr(99, 9, 9, 9)},
      [&](const std::vector<ProbeResult>& r) { results = r; });
  net.sim().run();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].candidate, near_host.addr());
  EXPECT_TRUE(results[0].reachable);
  EXPECT_EQ(results[1].candidate, far_host.addr());
  EXPECT_FALSE(results[2].reachable);  // 99.9.9.9 has no route
  EXPECT_LT(results[0].rtt, results[1].rtt);
  const ProbeResult* best = RemotePvnLocator::best(results);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->candidate, near_host.addr());
}

TEST(Locator, AllUnreachableReportsNone) {
  Network net;
  auto& client = net.add_node<Host>("client", Ipv4Addr(10, 0, 0, 2));
  auto& wan = net.add_node<Router>("wan");
  net.connect(client, wan);
  wan.add_route(*Prefix::parse("10.0.0.0/8"), 0);
  RemotePvnLocator locator(client);
  std::vector<ProbeResult> results;
  locator.probe({Ipv4Addr(99, 9, 9, 9)},
                [&](const std::vector<ProbeResult>& r) { results = r; });
  net.sim().run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].reachable);
  EXPECT_EQ(RemotePvnLocator::best(results), nullptr);
}

// --- Attestation -----------------------------------------------------------------

TEST(Attestation, HonestQuoteVerifies) {
  Attester enclave(1001);
  KeyRegistry trusted;
  trusted.trust(enclave.key());
  const Digest cfg = config_digest({"tls-validator", "pii-detector"},
                                   {"rule1", "rule2"});
  const AttestationQuote quote = enclave.quote(42, cfg, seconds(1));
  EXPECT_EQ(verify_quote(quote, trusted, enclave.key().public_key(), 42, cfg),
            AttestationVerdict::kOk);
}

TEST(Attestation, DetectsEveryCheatMode) {
  Attester enclave(1001);
  Attester rogue(6666);
  KeyRegistry trusted;
  trusted.trust(enclave.key());
  const Digest cfg = config_digest({"tls-validator"}, {"r"});
  const Digest other_cfg = config_digest({"nothing"}, {});

  // Unknown enclave key (software-only impostor).
  const AttestationQuote fake = rogue.quote(42, cfg, 0);
  EXPECT_EQ(verify_quote(fake, trusted, rogue.key().public_key(), 42, cfg),
            AttestationVerdict::kUnknownKey);
  // Forged signature under a trusted key id.
  AttestationQuote tampered = enclave.quote(42, cfg, 0);
  tampered.config_digest = other_cfg;  // body changed, signature stale
  EXPECT_EQ(
      verify_quote(tampered, trusted, enclave.key().public_key(), 42, other_cfg),
      AttestationVerdict::kBadSignature);
  // Replay (wrong nonce).
  const AttestationQuote replay = enclave.quote(41, cfg, 0);
  EXPECT_EQ(verify_quote(replay, trusted, enclave.key().public_key(), 42, cfg),
            AttestationVerdict::kWrongNonce);
  // Honest quote over the WRONG config (the skipped-module cheat).
  const AttestationQuote wrong_cfg = enclave.quote(42, other_cfg, 0);
  EXPECT_EQ(
      verify_quote(wrong_cfg, trusted, enclave.key().public_key(), 42, cfg),
      AttestationVerdict::kConfigMismatch);
}

TEST(Attestation, ConfigDigestIsOrderSensitive) {
  EXPECT_NE(config_digest({"a", "b"}, {}).hex(),
            config_digest({"b", "a"}, {}).hex());
  EXPECT_NE(config_digest({"a"}, {"r1"}).hex(),
            config_digest({"a"}, {"r2"}).hex());
}

// --- Path proofs -------------------------------------------------------------------

TEST(PathProof, ValidChainVerifies) {
  const std::vector<Bytes> keys = {to_bytes("hop1"), to_bytes("hop2"),
                                   to_bytes("hop3")};
  const Digest pkt = digest_of("packet-bytes");
  PathProof proof;
  proof.packet_digest = pkt;
  for (const Bytes& k : keys) extend_proof(proof, k);
  EXPECT_TRUE(verify_proof(proof, pkt, keys));
}

TEST(PathProof, DetectsSkippedReorderedAndForgedHops) {
  const std::vector<Bytes> keys = {to_bytes("hop1"), to_bytes("hop2"),
                                   to_bytes("hop3")};
  const Digest pkt = digest_of("packet-bytes");

  // Skipped middle hop (ISP routed around the middlebox).
  PathProof skipped;
  skipped.packet_digest = pkt;
  extend_proof(skipped, keys[0]);
  extend_proof(skipped, keys[2]);
  EXPECT_FALSE(verify_proof(skipped, pkt, keys));

  // Reordered hops.
  PathProof reordered;
  reordered.packet_digest = pkt;
  extend_proof(reordered, keys[1]);
  extend_proof(reordered, keys[0]);
  extend_proof(reordered, keys[2]);
  EXPECT_FALSE(verify_proof(reordered, pkt, keys));

  // Forged hop key.
  PathProof forged;
  forged.packet_digest = pkt;
  extend_proof(forged, keys[0]);
  extend_proof(forged, to_bytes("evil"));
  extend_proof(forged, keys[2]);
  EXPECT_FALSE(verify_proof(forged, pkt, keys));

  // Proof bound to a different packet.
  PathProof wrong_pkt;
  wrong_pkt.packet_digest = digest_of("other-packet");
  for (const Bytes& k : keys) extend_proof(wrong_pkt, k);
  EXPECT_FALSE(verify_proof(wrong_pkt, pkt, keys));
}

// --- Active measurements -------------------------------------------------------------

TEST(RateProbe, MeasuresShapingOnMarkedTraffic) {
  // ISP shapes tos 0x20 ("video") to 1.5 Mbps; control traffic unshaped.
  Testbed tb;
  tb.access_sw->add_meter("isp-video", Rate::kbps(1500), 20000);
  FlowRule shape;
  shape.priority = 50;
  shape.match.tos = 0x20;
  shape.cookie = "isp-policy";
  shape.actions.push_back(ActMeter{"isp-video"});
  shape.actions.push_back(ActOutput{1});
  tb.access_sw->table(0).add(shape);

  RateProbe control_probe(*tb.client, *tb.web, 9001);
  RateProbe marked_probe(*tb.client, *tb.web, 9002);
  double control = 0, marked = 0;
  control_probe.run(Rate::mbps(10), seconds(2), 0, "application/octet",
                    [&](const RateProbe::Result& r) {
                      control = r.achieved_mbps;
                    });
  tb.net.sim().run();
  marked_probe.run(Rate::mbps(10), seconds(2), 0x20, "video/mp4",
                   [&](const RateProbe::Result& r) {
                     marked = r.achieved_mbps;
                   });
  tb.net.sim().run();
  EXPECT_GT(control, 8.0);
  EXPECT_LT(marked, 2.5);
  const DifferentiationVerdict verdict =
      judge_differentiation(control, marked);
  EXPECT_TRUE(verdict.differentiated);
  EXPECT_LT(verdict.ratio, 0.3);
}

TEST(RateProbe, NoShapingNoDetection) {
  Testbed tb;
  RateProbe control_probe(*tb.client, *tb.web, 9001);
  RateProbe marked_probe(*tb.client, *tb.web, 9002);
  double control = 0, marked = 0;
  control_probe.run(Rate::mbps(10), seconds(2), 0, "application/octet",
                    [&](const RateProbe::Result& r) {
                      control = r.achieved_mbps;
                    });
  tb.net.sim().run();
  marked_probe.run(Rate::mbps(10), seconds(2), 0x20, "video/mp4",
                   [&](const RateProbe::Result& r) {
                     marked = r.achieved_mbps;
                   });
  tb.net.sim().run();
  EXPECT_FALSE(judge_differentiation(control, marked).differentiated);
}

TEST(ContentCheck, DetectsInNetworkModification) {
  Testbed tb;
  // Learn the honest digest first.
  Digest expected;
  {
    HttpClient http(*tb.client);
    http.fetch(tb.addrs.web, 80, "/bytes/5000",
               [&](const HttpResponse& resp, const FetchTiming&) {
                 expected = digest_of(resp.body);
               });
    tb.net.sim().run();
  }
  // Honest network: no modification.
  ContentCheck check1(*tb.client);
  bool modified = true;
  check1.run(tb.addrs.web, 80, "/bytes/5000", expected,
             [&](bool m, Digest) { modified = m; });
  tb.net.sim().run();
  EXPECT_FALSE(modified);

  // ISP now injects a middlebox that rewrites content (ad injection).
  class AdInjector : public Middlebox {
   public:
    const std::string& name() const override { return name_; }
    Verdict process(Packet& pkt, MboxContext&) override {
      // Crude content tampering: flip payload bytes on HTTP responses.
      if (pkt.ip.proto == IpProto::kTcp &&
          pkt.l4.size() > TcpHeader::kWireSize + 50) {
        pkt.l4[TcpHeader::kWireSize + 40] ^= 0x1;
      }
      return Verdict::kForward;
    }
    std::string name_ = "ad-injector";
  } injector;

  Chain isp_chain("isp-injector", 0);
  isp_chain.append(&injector);
  tb.access_sw->register_processor("isp-injector", &isp_chain);
  FlowRule divert;
  divert.priority = 60;
  divert.match.dst = Prefix{tb.addrs.client, 32};
  divert.match.proto = IpProto::kTcp;
  divert.cookie = "isp-policy";
  divert.actions.push_back(ActMbox{"isp-injector"});
  divert.actions.push_back(ActOutput{0});
  tb.access_sw->table(0).add(divert);

  ContentCheck check2(*tb.client);
  bool modified2 = false;
  check2.run(tb.addrs.web, 80, "/bytes/5000", expected,
             [&](bool m, Digest) { modified2 = m; });
  tb.net.sim().run_until(tb.net.sim().now() + seconds(60));
  EXPECT_TRUE(modified2);
}

TEST(PathInflation, JudgesAgainstBaseline) {
  EXPECT_FALSE(
      judge_path_inflation(milliseconds(30), milliseconds(25)).inflated);
  EXPECT_TRUE(
      judge_path_inflation(milliseconds(100), milliseconds(25)).inflated);
  EXPECT_FALSE(judge_path_inflation(milliseconds(100), 0).inflated);
}

TEST(TlsInterception, PinnedKeyComparison) {
  KeyPair real(1), mitm(2);
  EXPECT_FALSE(tls_intercepted(real.public_key(), real.public_key()));
  EXPECT_TRUE(tls_intercepted(real.public_key(), mitm.public_key()));
}

// --- Reputation -----------------------------------------------------------------------

TEST(Reputation, ViolationsErodeAndAuditsRecover) {
  ReputationSystem rep;
  EXPECT_DOUBLE_EQ(rep.score("isp-a"), 1.0);
  rep.report_violation("isp-a");
  EXPECT_LT(rep.score("isp-a"), 1.0);
  const double after_violation = rep.score("isp-a");
  rep.report_clean_audit("isp-a");
  EXPECT_GT(rep.score("isp-a"), after_violation);
}

TEST(Reputation, BlacklistAndProviderSelection) {
  ReputationSystem rep(0.5);
  for (int i = 0; i < 5; ++i) rep.report_violation("cheater");
  EXPECT_TRUE(rep.blacklisted("cheater"));
  EXPECT_FALSE(rep.blacklisted("honest"));
  EXPECT_EQ(rep.pick_provider({"cheater", "honest"}), "honest");
  for (int i = 0; i < 5; ++i) rep.report_violation("honest");
  EXPECT_EQ(rep.pick_provider({"cheater", "honest"}), "");
}

TEST(ViolationLog, CountsByKind) {
  ViolationLog log;
  log.record(Violation{0, "isp-a", "differentiation", "video shaped"});
  log.record(Violation{1, "isp-a", "differentiation", "audio shaped"});
  log.record(Violation{2, "isp-a", "content-modification", "ads injected"});
  EXPECT_EQ(log.count("differentiation"), 2u);
  EXPECT_EQ(log.count("content-modification"), 1u);
  EXPECT_EQ(log.count("path-inflation"), 0u);
  EXPECT_EQ(log.all().size(), 3u);
}

}  // namespace
}  // namespace pvn

// End-to-end integration tests: deployed PVNs defending against live
// attacks, anycast discovery across providers, multi-device deployments,
// tunnel policies, and protocol failure injection.
#include <gtest/gtest.h>

#include "mbox/inline_modules.h"
#include "pvn/pvnc_parser.h"
#include "testbed/testbed.h"

namespace pvn {
namespace {

// --- Deployed PVN vs live attacks ------------------------------------------------

TEST(E2E, TlsMitmBlockedByDeployedValidator) {
  Testbed tb;
  Pvnc pvnc;
  pvnc.name = "alice-phone";
  pvnc.chain.push_back(PvncModule{"tls-validator", {{"mode", "block"}}});
  ASSERT_TRUE(tb.deploy(pvnc).ok);

  // MITM on the malicious host presents a rogue chain for web.example.
  CertificateAuthority rogue("RogueCA", 666);
  KeyPair mitm_key(667);
  const Certificate forged =
      rogue.issue("web.example", mitm_key.public_key(), 0, seconds(100000));
  std::unique_ptr<TlsServer> mitm_tls;
  tb.malicious->tcp_listen(443, [&](TcpConnection& conn) {
    mitm_tls = std::make_unique<TlsServer>(
        conn, CertChain{forged, rogue.self_certificate()}, mitm_key);
  });

  // A broken app (no validation) connects through the PVN.
  TcpConnection& conn = tb.client->tcp_connect(tb.addrs.malicious, 443);
  TlsClient naive(conn, "web.example", nullptr, TlsClientPolicy::kNone, 1);
  tb.net.sim().run_until(tb.net.sim().now() + seconds(30));

  // The PVN killed the handshake before the app could be intercepted.
  EXPECT_FALSE(naive.info().established);
  Chain* chain = tb.mbox_host->chain("chain:alice-phone:0");
  ASSERT_NE(chain, nullptr);
  bool found = false;
  for (const MboxFinding& f : chain->findings()) {
    if (f.kind == "tls-invalid-cert") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(E2E, HonestTlsUnaffectedByDeployedValidator) {
  Testbed tb;
  Pvnc pvnc;
  pvnc.name = "alice-phone";
  pvnc.chain.push_back(PvncModule{"tls-validator", {{"mode", "block"}}});
  ASSERT_TRUE(tb.deploy(pvnc).ok);

  const Certificate honest = tb.root_ca->issue(
      "web.example", tb.web_tls_key->public_key(), 0, seconds(100000));
  std::unique_ptr<TlsServer> tls;
  tb.web->tcp_listen(443, [&](TcpConnection& conn) {
    tls = std::make_unique<TlsServer>(
        conn, CertChain{honest, tb.root_ca->self_certificate()},
        *tb.web_tls_key);
    tls->set_on_data([&](const Bytes& data) { tls->send(data); });
  });
  TcpConnection& conn = tb.client->tcp_connect(tb.addrs.web, 443);
  TlsClient client(conn, "web.example", &tb.trust, TlsClientPolicy::kStrict, 2);
  std::string echoed;
  client.set_on_connected([&](const TlsSessionInfo& info) {
    EXPECT_EQ(info.cert_status, CertStatus::kOk);
    client.send(to_bytes("through the pvn"));
  });
  client.set_on_data([&](const Bytes& data) { echoed = to_string(data); });
  tb.net.sim().run_until(tb.net.sim().now() + seconds(30));
  EXPECT_TRUE(client.info().established);
  EXPECT_EQ(echoed, "through the pvn");
}

TEST(E2E, DnsForgeryBlockedByDeployedValidator) {
  Testbed tb;
  tb.dns_server->forge("web.example", Ipv4Addr(66, 6, 6, 6));
  Pvnc pvnc;
  pvnc.name = "alice-phone";
  pvnc.chain.push_back(PvncModule{"dns-validator", {{"mode", "block"}}});
  ASSERT_TRUE(tb.deploy(pvnc).ok);

  StubResolver stub(*tb.client, {tb.addrs.dns});
  DnsResult result;
  result.status = DnsResult::Status::kOk;
  stub.resolve("web.example", [&](const DnsResult& r) { result = r; }, 1,
               seconds(1));
  tb.net.sim().run_until(tb.net.sim().now() + seconds(10));
  // The forged (pin-mismatching) answer was dropped in-network.
  EXPECT_EQ(result.status, DnsResult::Status::kTimeout);
}

TEST(E2E, MalwareBlockedByDeployedDetector) {
  Testbed tb;
  Pvnc pvnc;
  pvnc.name = "alice-phone";
  pvnc.chain.push_back(PvncModule{"malware-detector", {{"mode", "block"}}});
  ASSERT_TRUE(tb.deploy(pvnc).ok);

  // The malicious host serves a payload carrying the known signature.
  HttpServer evil_http(*tb.malicious);
  evil_http.set_handler([](const HttpRequest& req) {
    HttpResponse resp;
    resp.body = to_bytes("benign-looking EVIL_SHELLCODE payload");
    (void)req;
    return resp;
  });
  HttpClient http(*tb.client);
  bool completed = false;
  http.fetch(tb.addrs.malicious, 80, "/download",
             [&](const HttpResponse&, const FetchTiming& t) {
               completed = t.ok;
             });
  tb.net.sim().run_until(tb.net.sim().now() + seconds(120));
  EXPECT_FALSE(completed);  // the infected response never reached the device
}

TEST(E2E, TunnelPolicyRedirectsViaCloudGateway) {
  Testbed tb;
  const std::string text = R"(
pvnc "alice-phone" {
  policy tunnel proto=udp dport=443 gateway=203.0.113.5
}
)";
  const auto parsed = parse_pvnc(text);
  ASSERT_TRUE(std::holds_alternative<Pvnc>(parsed));
  ASSERT_TRUE(tb.deploy(std::get<Pvnc>(parsed)).ok);

  int got = 0;
  tb.web->bind_udp(443, [&](Ipv4Addr src, Port, Port, const Bytes&) {
    ++got;
    // Cloud gateway NAT means the server sees the gateway, not the client.
    EXPECT_EQ(src, tb.addrs.cloud_gw);
  });
  tb.client->send_udp(tb.addrs.web, 5555, 443, Bytes(32, 7));
  tb.net.sim().run_until(tb.net.sim().now() + seconds(10));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(tb.cloud_gw->decapsulated(), 1u);
}

TEST(E2E, TunnelReturnPathDecapsulatesAtSwitch) {
  Testbed tb;
  Pvnc pvnc;
  pvnc.name = "alice-phone";
  PvncPolicy tunnel;
  tunnel.kind = PvncPolicy::Kind::kTunnel;
  tunnel.match.proto = IpProto::kUdp;
  tunnel.match.dst_port = 443;
  tunnel.gateway = tb.addrs.cloud_gw;
  pvnc.policies.push_back(tunnel);
  ASSERT_TRUE(tb.deploy(pvnc).ok);

  tb.web->bind_udp(443, [&](Ipv4Addr src, Port sport, Port dport,
                            const Bytes& b) {
    tb.web->send_udp(src, dport, sport, b);  // echo
  });
  bool reply = false;
  tb.client->bind_udp(5555, [&](Ipv4Addr, Port, Port, const Bytes&) {
    reply = true;
  });
  tb.client->send_udp(tb.addrs.web, 5555, 443, Bytes(32, 7));
  tb.net.sim().run_until(tb.net.sim().now() + seconds(10));
  EXPECT_TRUE(reply);
  EXPECT_EQ(tb.cloud_gw->reencapsulated(), 1u);
  EXPECT_EQ(tb.esp_decap_proc->auth_failures(), 0u);
}

TEST(E2E, TunnelEspSequenceNumbersArePerTestbed) {
  // Each testbed numbers its switch's ESP frames from 1, whatever testbeds
  // ran earlier in the process.
  for (int round = 0; round < 2; ++round) {
    Testbed tb;
    Pvnc pvnc;
    pvnc.name = "alice-phone";
    PvncPolicy tunnel;
    tunnel.kind = PvncPolicy::Kind::kTunnel;
    tunnel.match.proto = IpProto::kUdp;
    tunnel.match.dst_port = 443;
    tunnel.gateway = tb.addrs.cloud_gw;
    pvnc.policies.push_back(tunnel);
    ASSERT_TRUE(tb.deploy(pvnc).ok);

    std::vector<std::uint32_t> seqs;
    tb.cloud_gw->port_link(0)->add_tap(
        [&](const Packet& pkt, const Node&, const Node& to) {
          if (pkt.ip.proto != IpProto::kEsp || &to != tb.cloud_gw) return;
          ByteReader r(pkt.l4);
          r.u32();  // spi
          seqs.push_back(r.u32());
        });
    tb.client->send_udp(tb.addrs.web, 5555, 443, Bytes(32, 7));
    tb.client->send_udp(tb.addrs.web, 5555, 443, Bytes(32, 8));
    tb.net.sim().run_until(tb.net.sim().now() + seconds(10));
    EXPECT_EQ(seqs, (std::vector<std::uint32_t>{1, 2})) << "testbed " << round;
  }
}

TEST(E2E, ReplicaSelectorSteersCdnLookups) {
  Testbed tb;
  Pvnc pvnc;
  pvnc.name = "alice-phone";
  pvnc.chain.push_back(PvncModule{"replica-selector", {}});
  ASSERT_TRUE(tb.deploy(pvnc).ok);

  // Authoritative DNS hands out the far replica (video, 90 ms); the PVN
  // rewrites to the near one (web, 20 ms).
  StubResolver stub(*tb.client, {tb.addrs.dns});
  DnsResult result;
  stub.resolve("cdn.example", [&](const DnsResult& r) { result = r; });
  tb.net.sim().run_until(tb.net.sim().now() + seconds(10));
  EXPECT_EQ(result.status, DnsResult::Status::kOk);
  EXPECT_EQ(result.addr, tb.addrs.web);  // steered to the near replica
}

// --- Anycast discovery across providers -------------------------------------------

TEST(E2E, AnycastDiscoveryCollectsOffersAndPicksCheapest) {
  // Two PVN-capable networks reachable through an exchange router. The
  // client floods its DM to the anycast address; both answer; the client
  // deploys to the cheaper one.
  Network net;
  auto& client = net.add_node<Host>("client", Ipv4Addr(10, 0, 0, 2));
  auto& exchange = net.add_node<Router>("exchange");
  auto& control_a = net.add_node<Host>("control-a", Ipv4Addr(20, 0, 0, 5));
  auto& control_b = net.add_node<Host>("control-b", Ipv4Addr(30, 0, 0, 5));
  auto& sw = net.add_node<SdnSwitch>("sw-x", 2);
  net.connect(client, exchange);      // exch p0
  net.connect(exchange, control_a);   // exch p1
  net.connect(exchange, control_b);   // exch p2
  net.connect(sw, exchange);          // unused dataplane placeholder
  exchange.add_route(*Prefix::parse("10.0.0.0/8"), 0);
  exchange.add_route(*Prefix::parse("20.0.0.0/8"), 1);
  exchange.add_route(*Prefix::parse("30.0.0.0/8"), 2);
  exchange.add_anycast_port(1);
  exchange.add_anycast_port(2);

  StoreEnvironment env;
  env.pii_patterns = {"imei="};
  auto store = make_standard_store(env);
  MboxHost mbox_a(net.sim()), mbox_b(net.sim());
  Controller ctrl(net.sim());
  ctrl.manage(sw);
  Ledger ledger;
  ServerConfig cfg_a;
  cfg_a.switch_name = "sw-x";
  cfg_a.network_name = "net-a";
  cfg_a.price_multiplier = 3.0;  // expensive
  ServerConfig cfg_b = cfg_a;
  cfg_b.network_name = "net-b";
  cfg_b.price_multiplier = 1.0;  // cheap
  DeploymentServer server_a(control_a, store, mbox_a, ctrl, ledger, cfg_a);
  DeploymentServer server_b(control_b, store, mbox_b, ctrl, ledger, cfg_b);

  Pvnc pvnc;
  pvnc.name = "alice-phone";
  pvnc.chain.push_back(PvncModule{"pii-detector", {}});

  PvnClient agent(client, pvnc);
  DeployOutcome outcome;
  agent.discover_and_deploy(kPvnAnycast,
                            [&](const DeployOutcome& o) { outcome = o; });
  net.sim().run_until(seconds(30));
  ASSERT_TRUE(outcome.ok) << outcome.failure;
  EXPECT_EQ(outcome.offers_received, 2);
  EXPECT_DOUBLE_EQ(outcome.paid, 1.0);  // picked the cheap provider
  EXPECT_EQ(server_b.deployments_active(), 1u);
  EXPECT_EQ(server_a.deployments_active(), 0u);
}

// --- PVNC by cloud URI -----------------------------------------------------------------

TEST(E2E, PvncFetchedFromCloudUri) {
  Testbed tb;
  // Publish the PVNC object in "cloud storage" (an HTTP path on web).
  const Pvnc pvnc = tb.standard_pvnc();
  const Bytes object = pvnc.encode();
  tb.web_http->set_handler([object](const HttpRequest& req) {
    if (req.path == "/pvnc/alice-phone") {
      HttpResponse resp;
      resp.body = object;
      resp.set_header("Content-Type", "application/x-pvnc");
      return resp;
    }
    return synthesize_response(req);
  });

  ClientConfig ccfg;
  ccfg.pvnc_uri = "pvnc://" + tb.addrs.web.to_string() + "/pvnc/alice-phone";
  const DeployOutcome out = tb.deploy(pvnc, ccfg);
  ASSERT_TRUE(out.ok) << out.failure;
  EXPECT_EQ(tb.server->deployments_active(), 1u);
  // The fetched object really was deployed: all four modules live.
  EXPECT_EQ(tb.mbox_host->instances(), 4);
}

TEST(E2E, UnreachableUriNacks) {
  Testbed tb;
  ClientConfig ccfg;
  ccfg.pvnc_uri = "pvnc://203.0.113.99/pvnc/missing";  // no such host
  ccfg.deploy_timeout = seconds(10);
  const DeployOutcome out = tb.deploy(tb.standard_pvnc(), ccfg);
  EXPECT_FALSE(out.ok);
}

TEST(E2E, MalformedUriNacks) {
  Testbed tb;
  ClientConfig ccfg;
  ccfg.pvnc_uri = "http://not-a-pvnc-uri/x";
  const DeployOutcome out = tb.deploy(tb.standard_pvnc(), ccfg);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.failure.find("malformed"), std::string::npos);
}

TEST(E2E, UriDeploymentRestrictedToProviderPolicy) {
  TestbedConfig cfg;
  cfg.allowed_modules = {"pii-detector", "tracker-blocker"};
  Testbed tb(cfg);
  const Pvnc pvnc = tb.standard_pvnc();
  const Bytes object = pvnc.encode();
  tb.web_http->set_handler([object](const HttpRequest& req) {
    HttpResponse resp;
    resp.body = object;
    (void)req;
    return resp;
  });
  ClientConfig ccfg;
  ccfg.pvnc_uri = "pvnc://" + tb.addrs.web.to_string() + "/pvnc/alice-phone";
  const DeployOutcome out = tb.deploy(pvnc, ccfg);
  ASSERT_TRUE(out.ok) << out.failure;
  // Only the allowed subset of the cloud object was instantiated.
  EXPECT_EQ(tb.mbox_host->instances(), 2);
}

// --- Multi-device --------------------------------------------------------------------

TEST(E2E, TwoDevicesDeployIndependentPvns) {
  Testbed tb;
  // Second device behind a new switch port with its own infra routing.
  auto& client2 = tb.net.add_node<Host>("client2", Ipv4Addr(10, 0, 0, 3));
  tb.net.connect(*tb.access_sw, client2, LinkParams{});  // switch port 3
  FlowRule to_client2;
  to_client2.priority = 2;  // above the /24 infra rule
  to_client2.match.dst = Prefix{client2.addr(), 32};
  to_client2.cookie = "infra";
  to_client2.actions.push_back(ActOutput{3});
  tb.access_sw->table(0).add(to_client2);

  // The server learns each device's port.
  ServerConfig scfg;
  scfg.switch_name = Testbed::kSwitchName;
  scfg.client_port_for = [&](Ipv4Addr device) {
    return device == client2.addr() ? 3 : 0;
  };
  tb.server.reset();
  auto server = std::make_unique<DeploymentServer>(
      *tb.control, *tb.store, *tb.mbox_host, *tb.controller, *tb.ledger, scfg);

  // Both devices deploy the same (shared) PVNC under their own names.
  Pvnc alice;
  alice.name = "alice-phone";
  alice.chain.push_back(PvncModule{"tracker-blocker", {}});
  Pvnc bob = alice;
  bob.name = "bob-laptop";

  PvnClient agent_a(*tb.client, alice);
  PvnClient agent_b(client2, bob);
  DeployOutcome out_a, out_b;
  agent_a.discover_and_deploy(tb.addrs.control,
                              [&](const DeployOutcome& o) { out_a = o; });
  agent_b.discover_and_deploy(tb.addrs.control,
                              [&](const DeployOutcome& o) { out_b = o; });
  tb.net.sim().run_until(tb.net.sim().now() + seconds(30));
  ASSERT_TRUE(out_a.ok) << out_a.failure;
  ASSERT_TRUE(out_b.ok) << out_b.failure;
  EXPECT_EQ(server->deployments_active(), 2u);

  // Each device's tracker beacons are blocked by its own chain; isolation:
  // Bob's chain never sees Alice's packets.
  const std::uint64_t tracker_before = tb.tracker_http->requests_served();
  TelemetryEmitter beacon_a(*tb.client, tb.addrs.tracker, 80, {});
  TelemetryEmitter beacon_b(client2, tb.addrs.tracker, 80, {});
  beacon_a.start(1, milliseconds(10));
  beacon_b.start(1, milliseconds(10));
  tb.net.sim().run_until(tb.net.sim().now() + seconds(30));
  EXPECT_EQ(tb.tracker_http->requests_served(), tracker_before);

  Chain* chain_a = tb.mbox_host->chain(out_a.chain_id);
  Chain* chain_b = tb.mbox_host->chain(out_b.chain_id);
  ASSERT_NE(chain_a, nullptr);
  ASSERT_NE(chain_b, nullptr);
  EXPECT_GT(chain_a->packets(), 0u);
  EXPECT_GT(chain_b->packets(), 0u);
}

// --- Protocol failure injection -----------------------------------------------------

TEST(E2E, OfferExpiryRejectedByClient) {
  TestbedConfig cfg;
  Testbed tb(cfg);
  // The server's offers expire almost immediately; the client dawdles.
  tb.server.reset();
  ServerConfig scfg;
  scfg.switch_name = Testbed::kSwitchName;
  scfg.offer_ttl = milliseconds(1);
  auto server = std::make_unique<DeploymentServer>(
      *tb.control, *tb.store, *tb.mbox_host, *tb.controller, *tb.ledger, scfg);
  ClientConfig ccfg;
  ccfg.offer_wait = milliseconds(500);  // far past expiry
  const DeployOutcome out = tb.deploy(tb.standard_pvnc(), ccfg);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.failure, "no acceptable offer");
}

TEST(E2E, DeployTimeoutWhenServerGoesSilent) {
  Testbed tb;
  tb.server->drop_deploy_requests(true);
  ClientConfig ccfg;
  ccfg.deploy_timeout = seconds(2);
  const DeployOutcome out = tb.deploy(tb.standard_pvnc(), ccfg);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.failure, "deploy timeout");
  EXPECT_EQ(tb.server->deployments_active(), 0u);
}

TEST(E2E, LossyControlChannelStillDeploysOrFailsCleanly) {
  // 20% loss on the access link: discovery may need luck, but the client
  // must end in a definite state either way.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    TestbedConfig cfg;
    cfg.seed = seed;
    cfg.access.loss = 0.2;
    Testbed tb(cfg);
    const DeployOutcome out = tb.deploy(tb.standard_pvnc());
    if (out.ok) {
      EXPECT_EQ(tb.server->deployments_active(), 1u);
    } else {
      EXPECT_FALSE(out.failure.empty());
    }
  }
}

// --- Property: format->parse->deploy round trips for assorted PVNCs ---------------

class PvncDeployProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(PvncDeployProperty, TextConfigDeploysEndToEnd) {
  const auto parsed = parse_pvnc(GetParam());
  ASSERT_TRUE(std::holds_alternative<Pvnc>(parsed));
  const Pvnc pvnc = std::get<Pvnc>(parsed);
  // Round-trip through the canonical formatter.
  const auto reparsed = parse_pvnc(format_pvnc(pvnc));
  ASSERT_TRUE(std::holds_alternative<Pvnc>(reparsed));
  EXPECT_EQ(std::get<Pvnc>(reparsed), pvnc);

  Testbed tb;
  const DeployOutcome out = tb.deploy(pvnc);
  EXPECT_TRUE(out.ok) << out.failure;
  // And traffic still flows.
  HttpClient http(*tb.client);
  bool ok = false;
  http.fetch(tb.addrs.web, 80, "/bytes/2000",
             [&](const HttpResponse&, const FetchTiming& t) { ok = t.ok; });
  tb.net.sim().run_until(tb.net.sim().now() + seconds(60));
  EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PvncDeployProperty,
    ::testing::Values(
        "pvnc \"alice-phone\" {\n}",
        "pvnc \"alice-phone\" {\n module classifier\n}",
        "pvnc \"alice-phone\" {\n module pii-detector action=scrub\n"
        " module tracker-blocker\n}",
        "pvnc \"alice-phone\" {\n policy drop proto=udp dport=1900\n"
        " policy mark dport=80 tos=16\n}",
        "pvnc \"alice-phone\" {\n module classifier\n"
        " policy rate tos=0x20 rate=2mbps\n}",
        "pvnc \"alice-phone\" {\n module tls-validator mode=warn\n"
        " module dns-validator mode=warn\n module malware-detector\n"
        " policy drop dst=66.6.6.6\n}"));

}  // namespace
}  // namespace pvn

#include "testbed/testbed.h"

namespace pvn {
namespace {

// The wan <-> cloud gateway link's latency on top of server_link's.
constexpr SimDuration kCloudExtraLatency = milliseconds(40);

}  // namespace

Testbed::Testbed(TestbedConfig cfg) : net(cfg.seed), cfg_(cfg) {
  // --- nodes ---
  client = &net.add_node<Host>("client", addrs.client);
  control = &net.add_node<Host>("control", addrs.control);
  web = &net.add_node<Host>("web", addrs.web);
  video = &net.add_node<Host>("video", addrs.video);
  dns_host = &net.add_node<Host>("dns", addrs.dns);
  tracker = &net.add_node<Host>("tracker", addrs.tracker);
  malicious = &net.add_node<Host>("malicious", addrs.malicious);
  cloud_gw = &net.add_node<VpnGateway>("cloud-gw", addrs.cloud_gw,
                                       tunnel_key());
  access_sw = &net.add_node<SdnSwitch>(kSwitchName, 2);
  wan = &net.add_node<Router>("wan");
  if (cfg.standby) {
    standby_node = &net.add_node<Host>("standby", addrs.standby);
    for (int i = 0; i < cfg.extra_standby_pools; ++i) {
      extra_standby_nodes.push_back(&net.add_node<Host>(
          "standby-" + std::to_string(i + 1),
          Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(7 + i))));
    }
  }

  // --- links ---
  access_link = &net.connect(*client, *access_sw, cfg.access);  // sw p0
  net.connect(*access_sw, *wan, cfg.backhaul);                  // sw p1
  net.connect(*access_sw, *control, cfg.backhaul);              // sw p2
  if (cfg.standby) {
    net.connect(*access_sw, *standby_node, cfg.backhaul);       // sw p3
    for (Host* node : extra_standby_nodes) {                    // sw p4+
      net.connect(*access_sw, *node, cfg.backhaul);
    }
  }
  net.connect(*wan, *web, cfg.server_link);      // wan p1
  net.connect(*wan, *video, cfg.server_link);    // wan p2
  net.connect(*wan, *dns_host, cfg.server_link); // wan p3
  net.connect(*wan, *tracker, cfg.server_link);  // wan p4
  net.connect(*wan, *malicious, cfg.server_link);// wan p5
  LinkParams cloud_link = cfg.server_link;
  cloud_link.latency = cfg.server_link.latency + kCloudExtraLatency;
  net.connect(*wan, *cloud_gw, cloud_link);      // wan p6

  // --- routing ---
  wan->add_route(*Prefix::parse("10.0.0.0/24"), 0);
  wan->add_route(Prefix{addrs.web, 32}, 1);
  wan->add_route(Prefix{addrs.video, 32}, 2);
  wan->add_route(Prefix{addrs.dns, 32}, 3);
  wan->add_route(Prefix{addrs.tracker, 32}, 4);
  wan->add_route(Prefix{addrs.malicious, 32}, 5);
  wan->add_route(Prefix{addrs.cloud_gw, 32}, 6);
  // Cloud gateway reaches the world back through the wan router.

  // Infrastructure rules: plain L3 forwarding at the lowest priority.
  {
    FlowRule to_control;
    to_control.priority = 0;
    to_control.match.dst = Prefix{addrs.control, 32};
    to_control.cookie = "infra";
    to_control.actions.push_back(ActOutput{2});
    access_sw->table(0).add(to_control);

    FlowRule to_client;
    to_client.priority = 0;
    to_client.match.dst = *Prefix::parse("10.0.0.0/24");
    to_client.cookie = "infra";
    to_client.actions.push_back(ActOutput{0});
    access_sw->table(0).add(to_client);

    FlowRule to_wan;
    to_wan.priority = 0;
    to_wan.cookie = "infra";
    to_wan.actions.push_back(ActOutput{1});
    access_sw->table(0).add(to_wan);

    if (cfg.standby) {
      FlowRule to_standby;
      to_standby.priority = 1;  // beats the 10.0.0.0/24 -> p0 rule
      to_standby.match.dst = Prefix{addrs.standby, 32};
      to_standby.cookie = "infra";
      to_standby.actions.push_back(ActOutput{3});
      access_sw->table(0).add(to_standby);
      for (std::size_t i = 0; i < extra_standby_nodes.size(); ++i) {
        FlowRule to_extra;
        to_extra.priority = 1;
        to_extra.match.dst = Prefix{extra_standby_nodes[i]->addr(), 32};
        to_extra.cookie = "infra";
        to_extra.actions.push_back(ActOutput{4 + static_cast<int>(i)});
        access_sw->table(0).add(to_extra);
      }
    }
  }
  // Tunnel encapsulation hook for ActTunnel (Fig. 1c), and the matching
  // decapsulation of returning ESP traffic from the cloud gateway.
  access_sw->set_tunnel_encap(
      [this, key = tunnel_key()](Packet inner, Ipv4Addr gateway) {
        return esp_encap(std::move(inner), Ipv4Addr(10, 0, 0, 1), gateway,
                         key, /*spi=*/1, ++tunnel_seq_);
      });
  esp_decap_proc = std::make_unique<EspDecapProcessor>(tunnel_key());
  access_sw->register_processor("esp-decap", esp_decap_proc.get());
  {
    FlowRule decap;
    decap.priority = 20000;
    decap.match.proto = IpProto::kEsp;
    decap.match.dst = *Prefix::parse("10.0.0.1");
    decap.cookie = "infra";
    decap.actions.push_back(ActMbox{"esp-decap"});
    decap.actions.push_back(ActOutput{0});
    access_sw->table(0).add(decap);
  }

  // --- security environment ---
  root_ca = std::make_unique<CertificateAuthority>("TestbedRootCA", 11);
  web_tls_key = std::make_unique<KeyPair>(12);
  trust.trust_root(*root_ca);
  dns_trusted.trust(dns_zone_key);

  // --- servers ---
  web_http = std::make_unique<HttpServer>(*web);
  video_http = std::make_unique<HttpServer>(*video);
  install_video_server(*video_http, 250 * 1000);
  tracker_http = std::make_unique<HttpServer>(*tracker);
  dns_server = std::make_unique<DnsServer>(*dns_host, &dns_zone_key);
  dns_server->add_record("web.example", addrs.web);
  dns_server->add_record("video.example", addrs.video);
  // A replicated CDN service: authoritative DNS hands out the far replica;
  // the replica-selector module can steer clients to the near one.
  dns_server->add_record("cdn.example", addrs.video, 300, /*sign=*/false);

  // --- PVN services on the control host ---
  store_env.tls_trust = &trust;
  store_env.dns_zone_keys = &dns_trusted;
  store_env.dns_zone_key_id = dns_zone_key.public_key();
  store_env.dns_pins = {{"web.example", addrs.web}};
  store_env.dns_require_signed = {"bank.example"};
  store_env.tracker_addrs = {addrs.tracker};
  store_env.pii_patterns = {"imei=", "lat=", "password=", "email="};
  store_env.malware_signatures = {to_bytes("EVIL_SHELLCODE")};
  store_env.replica_services = {{"cdn.example", {addrs.web, addrs.video}}};
  store_env.replica_rtt = {{addrs.web, milliseconds(20)},
                           {addrs.video, milliseconds(90)}};
  store = std::make_unique<PvnStore>(make_standard_store(store_env));

  mbox_host = std::make_unique<MboxHost>(net.sim(), cfg.mbox);
  if (cfg.standby) {
    standby_mbox = std::make_unique<MboxHost>(net.sim(), cfg.mbox);
    standby_agent =
        std::make_unique<StandbyAgent>(*standby_node, *standby_mbox);
    for (Host* node : extra_standby_nodes) {
      extra_standby_mboxes.push_back(
          std::make_unique<MboxHost>(net.sim(), cfg.mbox));
      extra_standby_agents.push_back(std::make_unique<StandbyAgent>(
          *node, *extra_standby_mboxes.back()));
    }
  }
  controller = std::make_unique<Controller>(net.sim());
  controller->manage(*access_sw);
  ledger = std::make_unique<Ledger>();

  ServerConfig scfg;
  scfg.switch_name = kSwitchName;
  scfg.switch_client_port = 0;
  scfg.switch_wan_port = 1;
  scfg.allowed_modules = cfg.allowed_modules;
  scfg.price_multiplier = cfg.price_multiplier;
  scfg.lease_duration = cfg.lease_duration;
  scfg.max_pending_deploys = cfg.max_pending_deploys;
  scfg.max_expiries_per_sweep = cfg.max_expiries_per_sweep;
  if (cfg.standby) {
    scfg.checkpoint_interval = cfg.checkpoint_interval;
    scfg.standbys.push_back({standby_mbox.get(), addrs.standby});
    for (std::size_t i = 0; i < extra_standby_mboxes.size(); ++i) {
      scfg.standbys.push_back(
          {extra_standby_mboxes[i].get(), extra_standby_nodes[i]->addr()});
    }
  }
  server = std::make_unique<DeploymentServer>(*control, *store, *mbox_host,
                                              *controller, *ledger, scfg);

  dhcp = std::make_unique<DhcpServer>(*control, Ipv4Addr(10, 0, 0, 50), 100);
  std::string standards;  // the DHCP option's comma-separated form
  for (const std::string& s : kPvnStandards) {
    standards += (standards.empty() ? "" : ",") + s;
  }
  dhcp->advertise_pvn(addrs.control, standards);

  // --- resilience harness ---
  faults = std::make_unique<FaultInjector>(net);
  device_tunnel =
      std::make_unique<DeviceTunnel>(*client, addrs.cloud_gw, tunnel_key());

  // --- operations plane ---
  if (cfg.enable_ops) {
    flight_recorder = std::make_unique<FlightRecorder>(cfg.flight);
    flight_recorder->attach(net);
    ops = std::make_unique<OpsEndpoint>(*control);
    ops->set_controller(controller.get());
    ops->set_deployment_server(server.get());
    ops->set_span_recorder(&telemetry::SpanRecorder::global());
    ops->set_flight_recorder(flight_recorder.get());
    health = std::make_unique<HealthMonitor>(cfg.health);
    for (HealthRule& rule : HealthMonitor::default_rules()) {
      health->add_rule(std::move(rule));
    }
    ops->set_health_monitor(health.get());
  }
}

Pvnc Testbed::standard_pvnc(const std::string& owner) const {
  Pvnc pvnc;
  pvnc.name = owner;
  pvnc.chain.push_back(PvncModule{"tls-validator", {{"mode", "block"}}});
  pvnc.chain.push_back(PvncModule{"dns-validator", {{"mode", "block"}}});
  pvnc.chain.push_back(PvncModule{"pii-detector", {{"action", "block"}}});
  pvnc.chain.push_back(PvncModule{"tracker-blocker", {}});
  return pvnc;
}

DeployOutcome Testbed::deploy(const Pvnc& pvnc, ClientConfig ccfg) {
  PvnClient agent(*client, pvnc, ccfg);
  DeployOutcome outcome;
  bool done = false;
  agent.discover_and_deploy(addrs.control, [&](const DeployOutcome& o) {
    outcome = o;
    done = true;
  });
  net.sim().run_until(net.sim().now() + seconds(30));
  (void)done;
  return outcome;
}

}  // namespace pvn

// The canonical experiment topology used by integration tests, benchmarks,
// and examples — one "PVN-capable access network" in a box:
//
//   client ──p0─ [access SdnSwitch] ─p1── wan Router ──┬── web server
//                      │p2                             ├── video server
//              control Host                            ├── dns resolver
//        (DHCP + DeploymentServer +                    ├── tracker
//         Controller + MboxHost + Store)               ├── malicious host
//                                                      └── cloud gateway
//
// The switch starts with two low-priority infrastructure rules (plain
// routing); PVN deployments layer their cookie-scoped rules on top.
#pragma once

#include <memory>
#include <vector>

#include "audit/measurements.h"
#include "audit/reputation.h"
#include "mbox/proxies.h"
#include "netsim/faults.h"
#include "netsim/router.h"
#include "ops/endpoint.h"
#include "ops/flight_recorder.h"
#include "ops/health.h"
#include "proto/dhcp.h"
#include "proto/dns.h"
#include "proto/tls.h"
#include "pvn/client.h"
#include "pvn/server.h"
#include "pvn/standby.h"
#include "tunnel/vpn.h"
#include "workload/generators.h"

namespace pvn {

struct TestbedConfig {
  LinkParams access;       // client <-> switch
  LinkParams backhaul;     // switch <-> wan router
  LinkParams server_link;  // wan router <-> each server
  std::uint64_t seed = 1;
  // Provider behaviour knobs.
  std::set<std::string> allowed_modules;  // empty = all
  double price_multiplier = 1.0;
  // Deployment lease length handed to the server (0 = no leases).
  SimDuration lease_duration = 0;
  // Survivability: adds a second mbox pool behind the switch (p3, host
  // 10.0.0.6) with a StandbyAgent; the server mirrors every deployment
  // there and promotes it when the primary MboxHost crashes.
  bool standby = false;
  SimDuration checkpoint_interval = milliseconds(200);
  // Byzantine-robustness: additional standby pools behind the switch
  // (hosts 10.0.0.7+, switch ports p4+). Only meaningful with standby;
  // the server demotes a lying pool and re-mirrors onto the next one.
  int extra_standby_pools = 0;
  // Middlebox pool parameters (memory budget / per-instance cost); applied
  // to the primary pool and every standby pool alike.
  MboxHostConfig mbox;
  // Overload control (ServerConfig pass-throughs, see server.h).
  std::size_t max_pending_deploys = 0;
  std::size_t max_expiries_per_sweep = 0;
  // Operations plane: an OpsEndpoint on the control host (port kOpsPort)
  // wired to the controller, deployment server, global span recorder, and a
  // flight recorder tapping every link.
  bool enable_ops = false;
  FlightRecorderConfig flight;
  // SLO monitor behind the ops endpoint's get-alerts verb; stock rules
  // (HealthMonitor::default_rules) are installed unless a test adds its own
  // before the first evaluation.
  HealthMonitorConfig health;

  TestbedConfig() {
    access.rate = Rate::mbps(50);
    access.latency = milliseconds(8);
    backhaul.rate = Rate::mbps(1000);
    backhaul.latency = milliseconds(2);
    server_link.rate = Rate::mbps(1000);
    server_link.latency = milliseconds(10);
  }
};

// Well-known addresses in the testbed.
struct TestbedAddrs {
  Ipv4Addr client{10, 0, 0, 2};
  Ipv4Addr control{10, 0, 0, 5};
  Ipv4Addr standby{10, 0, 0, 6};  // only wired when TestbedConfig::standby
  Ipv4Addr web{93, 184, 216, 34};
  Ipv4Addr video{93, 184, 216, 35};
  Ipv4Addr dns{8, 8, 8, 8};
  Ipv4Addr tracker{6, 6, 6, 6};
  Ipv4Addr malicious{66, 6, 6, 6};
  Ipv4Addr cloud_gw{203, 0, 113, 5};
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig cfg = {});

  // --- topology ---
  Network net;
  TestbedAddrs addrs;
  Host* client = nullptr;
  Host* control = nullptr;
  Host* web = nullptr;
  Host* video = nullptr;
  Host* dns_host = nullptr;
  Host* tracker = nullptr;
  Host* malicious = nullptr;
  VpnGateway* cloud_gw = nullptr;
  SdnSwitch* access_sw = nullptr;
  Router* wan = nullptr;
  Link* access_link = nullptr;
  Host* standby_node = nullptr;  // non-null when cfg.standby
  // Extra pools (cfg.extra_standby_pools), parallel vectors by pool index.
  std::vector<Host*> extra_standby_nodes;

  // --- access-network services ---
  std::unique_ptr<PvnStore> store;
  std::unique_ptr<MboxHost> mbox_host;
  // Warm-standby pool (cfg.standby): destroyed after the server, which
  // holds a raw pointer and a crash listener on it.
  std::unique_ptr<MboxHost> standby_mbox;
  std::unique_ptr<StandbyAgent> standby_agent;
  std::vector<std::unique_ptr<MboxHost>> extra_standby_mboxes;
  std::vector<std::unique_ptr<StandbyAgent>> extra_standby_agents;
  std::unique_ptr<Controller> controller;
  std::unique_ptr<Ledger> ledger;
  std::unique_ptr<DeploymentServer> server;
  std::unique_ptr<DhcpServer> dhcp;
  std::unique_ptr<DnsServer> dns_server;
  std::unique_ptr<EspDecapProcessor> esp_decap_proc;

  // --- operations plane (cfg.enable_ops) ---
  std::unique_ptr<FlightRecorder> flight_recorder;
  std::unique_ptr<HealthMonitor> health;
  std::unique_ptr<OpsEndpoint> ops;

  // --- resilience harness ---
  // Deterministic fault injection over the testbed's links and nodes.
  std::unique_ptr<FaultInjector> faults;
  // Client-side VPN fallback toward the cloud gateway; created inactive.
  // Hand it to a PvnClient via set_fallback for automatic failover.
  std::unique_ptr<DeviceTunnel> device_tunnel;

  // --- content / security environment ---
  std::unique_ptr<CertificateAuthority> root_ca;
  std::unique_ptr<KeyPair> web_tls_key;
  TrustStore trust;           // what a well-configured device trusts
  KeyPair dns_zone_key{777};
  KeyRegistry dns_trusted;
  std::unique_ptr<HttpServer> web_http;
  std::unique_ptr<HttpServer> video_http;
  std::unique_ptr<HttpServer> tracker_http;

  static constexpr const char* kSwitchName = "access-sw";
  static Bytes tunnel_key() { return to_bytes("testbed-tunnel-key"); }

  // Deploys `pvnc` for the client through the full discovery protocol and
  // runs the simulation until the outcome lands. Returns it.
  DeployOutcome deploy(const Pvnc& pvnc, ClientConfig ccfg = {});

  // The standard experiment PVNC (validators + pii + tracker blocking).
  Pvnc standard_pvnc(const std::string& owner = "alice-phone") const;

  // Store environment used (exposed so tests can extend it).
  StoreEnvironment store_env;

 private:
  TestbedConfig cfg_;
  std::uint32_t tunnel_seq_ = 0;  // ESP sequence of the switch's tunnel hook
};

}  // namespace pvn

// Population-scale topology for storm and adversarial experiments: N client
// hosts behind an aggregation router, two honest PVN access networks, and an
// optional rogue deployment server that competes in the same offer auction.
//
//   client_0 ─┐
//   client_1 ─┤p0..pN-1                 ┌─ sw A ─p1─ control A (10.0.0.5)
//      ...    ├──── agg Router ──pN ────┘
//   client_N-1┘          │ pN+1 ─────────── sw B ─p1─ control B (10.0.1.5)
//                        └ pN+2 ─────────── rogue host (10.0.2.5, optional)
//
// Every deployment server sees all clients through one switch port, which is
// exactly the regime admission control and amortized lease sweeping are for:
// a flash crowd or a mass expiry arrives as one undifferentiated burst. The
// clients share a single HostScoreboard (when enabled), so one device's bad
// experience with the rogue protects the rest of the fleet.
#pragma once

#include <memory>
#include <vector>

#include "audit/reputation.h"
#include "netsim/router.h"
#include "pvn/client.h"
#include "pvn/server.h"
#include "pvn/standby.h"

namespace pvn {

// How the rogue deployment server misbehaves. It speaks just enough of the
// discovery protocol to attack the auction; it never runs a middlebox.
enum class RogueMode : std::uint8_t {
  // Undercuts every honest offer but attaches an absurd lease (shorter than
  // any renewal cadence can sustain). Vetting drops it; an unvetted client
  // deploys into a lease that collapses immediately.
  kBogusOffers,
  // Offers honestly-looking terms, then refuses every deployment with a
  // kBusy NAK and a long retry-after — a denial-of-service on the device's
  // deploy budget.
  kNakFlood,
  // Offers honestly-looking terms, acks every deployment with a fake chain
  // id, then ignores the session: no rules, no renewals answered. The device
  // believes it is protected until the lease heartbeat catches the lie.
  kBlackhole,
};

// A deployment server test double that wins auctions and misbehaves.
class RogueServer {
 public:
  RogueServer(Host& host, RogueMode mode);
  ~RogueServer();

  RogueServer(const RogueServer&) = delete;
  RogueServer& operator=(const RogueServer&) = delete;

  RogueMode mode() const { return mode_; }
  // Chaos schedules flip the attack mid-run; takes effect on the next
  // message the rogue answers.
  void set_mode(RogueMode mode) { mode_ = mode; }

  // --- attack telemetry ---
  std::uint64_t offers_sent() const { return offers_sent_; }
  std::uint64_t naks_sent() const { return naks_sent_; }
  // kBlackhole: deployments acked but never served. Each one is a device
  // stranded until its renew heartbeat gives up on us.
  std::uint64_t fake_acks() const { return fake_acks_; }

 private:
  void on_packet(Ipv4Addr src, Port sport, const Bytes& payload);

  Host* host_;
  RogueMode mode_;
  std::uint64_t offers_sent_ = 0;
  std::uint64_t naks_sent_ = 0;
  std::uint64_t fake_acks_ = 0;
};

struct PopulationConfig {
  int clients = 200;
  LinkParams access;    // client <-> agg
  LinkParams backhaul;  // agg <-> switches / switch <-> control
  std::uint64_t seed = 1;
  SimDuration lease_duration = seconds(30);
  // Survivability under chaos: with `standbys`, each access network gains a
  // warm-standby mbox pool behind its switch (hosts 10.0.0.6 / 10.0.1.6,
  // switch port p2) and the servers mirror every deployment there at this
  // checkpoint cadence (> 0 required for mirroring to engage).
  bool standbys = false;
  SimDuration checkpoint_interval = 0;
  // Population-scale middlebox pools: 2000 single-module chains at the
  // ClickOS 6 MiB/instance figure need ~12 GiB, so the default 4 GiB budget
  // would turn every storm into an out-of-memory test.
  std::int64_t mbox_budget = 64LL * kGiB;
  // Admission control on both honest servers (0 = unbounded, the default
  // ServerConfig behaviour).
  std::size_t max_pending_deploys = 0;
  std::size_t max_expiries_per_sweep = 0;
  bool rogue = false;
  RogueMode rogue_mode = RogueMode::kBogusOffers;

  PopulationConfig() {
    access.rate = Rate::mbps(50);
    access.latency = milliseconds(5);
    backhaul.rate = Rate::mbps(10'000);
    backhaul.latency = milliseconds(1);
  }
};

struct PopulationAddrs {
  Ipv4Addr control_a{10, 0, 0, 5};
  Ipv4Addr control_b{10, 0, 1, 5};
  Ipv4Addr standby_a{10, 0, 0, 6};  // wired when PopulationConfig::standbys
  Ipv4Addr standby_b{10, 0, 1, 6};
  Ipv4Addr rogue{10, 0, 2, 5};
};

class PopulationTestbed {
 public:
  explicit PopulationTestbed(PopulationConfig cfg = {});

  // One access network's PVN service stack (mirrors RoamingTestbed).
  struct AccessNet {
    std::unique_ptr<PvnStore> store;
    std::unique_ptr<MboxHost> mbox;
    std::unique_ptr<Controller> controller;
    std::unique_ptr<Ledger> ledger;
    // Warm-standby pool (PopulationConfig::standbys): destroyed after the
    // server, which holds a raw pointer and a crash listener on it.
    std::unique_ptr<MboxHost> standby_mbox;
    std::unique_ptr<StandbyAgent> standby_agent;
    std::unique_ptr<DeploymentServer> server;
  };

  // --- topology ---
  Network net;
  PopulationAddrs addrs;
  std::vector<Host*> clients;
  Router* agg = nullptr;
  SdnSwitch* sw_a = nullptr;
  SdnSwitch* sw_b = nullptr;
  Host* control_a = nullptr;
  Host* control_b = nullptr;
  Host* standby_host_a = nullptr;  // non-null when cfg.standbys
  Host* standby_host_b = nullptr;
  Host* rogue_host = nullptr;  // non-null when cfg.rogue
  // Fault-injection handles: client i's access link and the two backhaul
  // uplinks (partitioning an uplink isolates that whole access network).
  std::vector<Link*> access_links;
  Link* uplink_a = nullptr;  // agg <-> sw A
  Link* uplink_b = nullptr;  // agg <-> sw B

  AccessNet a, b;
  std::unique_ptr<RogueServer> rogue;

  // Fleet-shared reputation (scenarios opt in via make_agents).
  HostScoreboard scoreboard;

  // --- the fleet ---
  // One PvnClient per client host, created on demand. When `shared_scoreboard`
  // the fleet pools misbehavior reports in `scoreboard`.
  std::vector<std::unique_ptr<PvnClient>> agents;
  void make_agents(ClientConfig base = {}, bool shared_scoreboard = false);

  // Address / identity scheme: client i lives at 10.1.<i/250>.<2 + i%250>
  // and deploys a PVNC named "dev-<i>".
  static Ipv4Addr client_addr(int i);
  Pvnc pvnc_for(int i) const;

  // Fleet health snapshots for benches.
  int active_agents() const;    // sessions in kActive
  int fallback_agents() const;  // sessions in kFallback

  static constexpr const char* kSwitchA = "pop-sw-a";
  static constexpr const char* kSwitchB = "pop-sw-b";

  const PopulationConfig& config() const { return cfg_; }

 private:
  PopulationConfig cfg_;
};

}  // namespace pvn

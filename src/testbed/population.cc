#include "testbed/population.h"

#include "mbox/registry.h"

namespace pvn {

RogueServer::RogueServer(Host& host, RogueMode mode)
    : host_(&host), mode_(mode) {
  host_->bind_udp(kPvnPort,
                  [this](Ipv4Addr src, Port sport, Port, const Bytes& payload) {
                    on_packet(src, sport, payload);
                  });
}

RogueServer::~RogueServer() { host_->unbind_udp(kPvnPort); }

void RogueServer::on_packet(Ipv4Addr src, Port sport, const Bytes& payload) {
  const auto frame = unwrap_frame(payload);
  if (!frame) return;
  switch (frame->type) {
    case PvnMsgType::kDiscovery: {
      const auto dm = DiscoveryMessage::decode(frame->body);
      if (!dm) return;
      // Win the auction: echo back exactly what was asked for, cheaper than
      // any honest quote (pick_best_offer breaks utility ties by price).
      Offer offer;
      offer.seq = dm->seq;
      offer.deployment_server = host_->addr();
      offer.standards = dm->standards;
      offer.offered_modules = dm->modules;
      offer.total_price = 0.01;
      offer.expires_at = host_->sim().now() + seconds(30);
      offer.capacity_bytes = 1LL << 30;
      // kBogusOffers attaches terms no honest network would quote: a lease
      // shorter than any renewal cadence can sustain. Vetting rejects it
      // (kLeaseTooShort); negotiation alone does not look at the lease.
      offer.lease_duration = mode_ == RogueMode::kBogusOffers
                                 ? milliseconds(1)
                                 : seconds(30);
      ++offers_sent_;
      host_->send_udp(src, kPvnPort, sport,
                      wrap(PvnMsgType::kOffer, offer.encode(), {}));
      break;
    }
    case PvnMsgType::kDeployRequest: {
      const auto req = DeployRequest::decode(frame->body);
      if (!req) return;
      if (mode_ == RogueMode::kNakFlood) {
        DeployNack nack;
        nack.seq = req->seq;
        nack.reason = "server busy";
        nack.code = NackCode::kBusy;
        nack.retry_after = seconds(5);
        ++naks_sent_;
        host_->send_udp(src, kPvnPort, sport,
                        wrap(PvnMsgType::kDeployNack, nack.encode(), {}));
        return;
      }
      // kBlackhole (and a bogus-offer taker): ack a deployment that does not
      // exist. No rules are installed and no renewal will ever be answered;
      // the device is stranded until its lease heartbeat gives up.
      DeployAck ack;
      ack.seq = req->seq;
      ack.chain_id = "rogue:" + req->device_id;
      ack.dhcp_refresh = false;
      ack.lease_duration = mode_ == RogueMode::kBogusOffers ? milliseconds(1)
                                                            : seconds(30);
      ++fake_acks_;
      host_->send_udp(src, kPvnPort, sport,
                      wrap(PvnMsgType::kDeployAck, ack.encode(), {}));
      break;
    }
    default:
      // Renewals, teardowns, state requests: silence. That IS the attack.
      break;
  }
}

Ipv4Addr PopulationTestbed::client_addr(int i) {
  return Ipv4Addr(10, 1, static_cast<std::uint8_t>(i / 250),
                  static_cast<std::uint8_t>(2 + i % 250));
}

PopulationTestbed::PopulationTestbed(PopulationConfig cfg)
    : net(cfg.seed), cfg_(cfg) {
  // --- nodes ---
  clients.reserve(static_cast<std::size_t>(cfg.clients));
  for (int i = 0; i < cfg.clients; ++i) {
    clients.push_back(&net.add_node<Host>("client-" + std::to_string(i),
                                          client_addr(i)));
  }
  agg = &net.add_node<Router>("agg");
  sw_a = &net.add_node<SdnSwitch>(kSwitchA, 2);
  sw_b = &net.add_node<SdnSwitch>(kSwitchB, 2);
  control_a = &net.add_node<Host>("control-a", addrs.control_a);
  control_b = &net.add_node<Host>("control-b", addrs.control_b);
  if (cfg.standbys) {
    standby_host_a = &net.add_node<Host>("standby-a", addrs.standby_a);
    standby_host_b = &net.add_node<Host>("standby-b", addrs.standby_b);
  }
  if (cfg.rogue) {
    rogue_host = &net.add_node<Host>("rogue", addrs.rogue);
  }

  // --- links --- (agg ports: 0..N-1 clients, N = sw A, N+1 = sw B,
  // N+2 = rogue)
  access_links.reserve(clients.size());
  for (Host* c : clients) {
    access_links.push_back(&net.connect(*c, *agg, cfg.access));
  }
  uplink_a = &net.connect(*agg, *sw_a, cfg.backhaul);  // swA p0
  uplink_b = &net.connect(*agg, *sw_b, cfg.backhaul);  // swB p0
  if (cfg.rogue) net.connect(*agg, *rogue_host, cfg.backhaul);
  net.connect(*sw_a, *control_a, cfg.backhaul); // swA p1
  net.connect(*sw_b, *control_b, cfg.backhaul); // swB p1
  if (cfg.standbys) {
    net.connect(*sw_a, *standby_host_a, cfg.backhaul);  // swA p2
    net.connect(*sw_b, *standby_host_b, cfg.backhaul);  // swB p2
  }

  // --- routing ---
  const int n = cfg.clients;
  for (int i = 0; i < n; ++i) {
    agg->add_route(Prefix{client_addr(i), 32}, i);
  }
  agg->add_route(*Prefix::parse("10.0.0.0/24"), n);
  agg->add_route(*Prefix::parse("10.0.1.0/24"), n + 1);
  if (cfg.rogue) agg->add_route(*Prefix::parse("10.0.2.0/24"), n + 2);

  // Infrastructure rules: each switch forwards its control host's traffic
  // up to p1 and everything else back toward the aggregation router, which
  // routes by destination. The switches are single-homed onto the agg, so
  // "client side" and "wan side" are the same port.
  //
  // GCC 12's -Wmaybe-uninitialized trips on the inlined FlowTable insert of
  // the action variant here (a known optional/variant false positive); the
  // identical pattern in testbed.cc happens not to tickle it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
  for (int s = 0; s < 2; ++s) {
    SdnSwitch& sw = s == 0 ? *sw_a : *sw_b;
    const Ipv4Addr control = s == 0 ? addrs.control_a : addrs.control_b;

    FlowRule to_control;
    to_control.priority = 0;
    to_control.match.dst = Prefix{control, 32};
    to_control.cookie = "infra";
    to_control.actions.push_back(ActOutput{1});
    sw.table(0).add(std::move(to_control));

    FlowRule to_agg;
    to_agg.priority = 0;
    to_agg.cookie = "infra";
    to_agg.actions.push_back(ActOutput{0});
    sw.table(0).add(std::move(to_agg));

    if (cfg.standbys) {
      FlowRule to_standby;
      to_standby.priority = 1;  // beats the catch-all back toward the agg
      to_standby.match.dst =
          Prefix{s == 0 ? addrs.standby_a : addrs.standby_b, 32};
      to_standby.cookie = "infra";
      to_standby.actions.push_back(ActOutput{2});
      sw.table(0).add(std::move(to_standby));
    }
  }
#pragma GCC diagnostic pop

  // --- per-network PVN stacks ---
  // The store only needs tracker-blocker (pvnc_for), which has no external
  // environment dependencies.
  const auto build = [this](AccessNet& an, Host& control, SdnSwitch& sw,
                            const char* sw_name, const char* net_name,
                            Host* standby_node, Ipv4Addr standby_addr) {
    an.store = std::make_unique<PvnStore>(make_standard_store({}));
    MboxHostConfig mcfg;
    mcfg.memory_budget = cfg_.mbox_budget;
    an.mbox = std::make_unique<MboxHost>(net.sim(), mcfg);
    an.controller = std::make_unique<Controller>(net.sim());
    an.controller->manage(sw);
    an.ledger = std::make_unique<Ledger>();
    ServerConfig scfg;
    scfg.switch_name = sw_name;
    scfg.switch_client_port = 0;
    scfg.switch_wan_port = 0;  // single-homed: the agg routes by destination
    scfg.switch_control_port = 1;
    scfg.lease_duration = cfg_.lease_duration;
    scfg.checkpoint_interval = cfg_.checkpoint_interval;
    scfg.max_pending_deploys = cfg_.max_pending_deploys;
    scfg.max_expiries_per_sweep = cfg_.max_expiries_per_sweep;
    scfg.network_name = net_name;
    if (standby_node != nullptr) {
      an.standby_mbox = std::make_unique<MboxHost>(net.sim(), mcfg);
      an.standby_agent =
          std::make_unique<StandbyAgent>(*standby_node, *an.standby_mbox);
      scfg.standbys.push_back({an.standby_mbox.get(), standby_addr});
    }
    an.server = std::make_unique<DeploymentServer>(
        control, *an.store, *an.mbox, *an.controller, *an.ledger, scfg);
  };
  build(a, *control_a, *sw_a, kSwitchA, "pop-net-a", standby_host_a,
        addrs.standby_a);
  build(b, *control_b, *sw_b, kSwitchB, "pop-net-b", standby_host_b,
        addrs.standby_b);

  if (cfg.rogue) {
    rogue = std::make_unique<RogueServer>(*rogue_host, cfg.rogue_mode);
  }
}

Pvnc PopulationTestbed::pvnc_for(int i) const {
  Pvnc pvnc;
  pvnc.name = "dev-" + std::to_string(i);
  pvnc.chain.push_back(PvncModule{"tracker-blocker", {}});
  return pvnc;
}

void PopulationTestbed::make_agents(ClientConfig base, bool shared_scoreboard) {
  agents.clear();
  agents.reserve(clients.size());
  if (shared_scoreboard) base.scoreboard = &scoreboard;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    agents.push_back(std::make_unique<PvnClient>(
        *clients[i], pvnc_for(static_cast<int>(i)), base));
  }
}

int PopulationTestbed::active_agents() const {
  int n = 0;
  for (const auto& agent : agents) {
    if (agent->state() == SessionState::kActive) ++n;
  }
  return n;
}

int PopulationTestbed::fallback_agents() const {
  int n = 0;
  for (const auto& agent : agents) {
    if (agent->state() == SessionState::kFallback) ++n;
  }
  return n;
}

}  // namespace pvn

#include "workloads.h"

#include <algorithm>
#include <numeric>

#include "mbox/inline_modules.h"

namespace pvnbench {

using namespace pvn;

namespace {

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

void count_links(Network& net, Outcome& out) {
  for (const auto& link : net.links()) {
    for (const Node* end : {&link->end_a(), &link->end_b()}) {
      const LinkStats& s = link->stats_from(*end);
      out.link_pkts += s.delivered_packets;
      out.link_drops += s.queue_drops + s.loss_drops + s.tx_down_drops +
                        s.rx_down_drops;
    }
  }
  out.link_bytes = telemetry::MetricsRegistry::global().snapshot_for(
      {"netsim.link.delivered_bytes"}).counter_total(
          "netsim.link.delivered_bytes");
}

// --- fleet_churn --------------------------------------------------------------
//
// 2000 PVN sessions on two honest access networks. Sessions start at seeded
// times over the first 10 s and renew 6 s leases every ~2 s; from 14 s on,
// 10% of the clients migrate to the other network and a further 5% stop,
// tear down, and restart their session. No data traffic.

constexpr int kFleetClients = 2000;
constexpr SimDuration kFleetLease = seconds(6);
constexpr SimDuration kFleetHorizon = seconds(36);

class FleetChurn final : public Workload {
 public:
  explicit FleetChurn(std::uint64_t seed) : tb_(config(seed)) {
    Rng rng(seed ^ 0xf1ee7c4u);
    // Heterogeneous access: one-way latency 2-12 ms per client.
    for (Link* link : tb_.access_links) {
      link->set_latency(rng.uniform_int(milliseconds(2), milliseconds(12)));
    }
    tb_.make_agents();
    sessions_.resize(kFleetClients);
    std::vector<int> order(kFleetClients);
    std::iota(order.begin(), order.end(), 0);
    for (int i = kFleetClients - 1; i > 0; --i) {
      std::swap(order[static_cast<std::size_t>(i)],
                order[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
    }
    Simulator& sim = tb_.net.sim();
    for (int i = 0; i < kFleetClients; ++i) {
      Session& s = sessions_[static_cast<std::size_t>(i)];
      s.home = rng.bernoulli(0.5) ? tb_.addrs.control_b : tb_.addrs.control_a;
      sim.schedule_at(rng.uniform_int(0, seconds(10)), SimCategory::kWorkload,
                      [this, i] { begin_deploy(i); });
    }
    const int migrants = kFleetClients / 10;
    const int restarters = kFleetClients / 20;
    for (int k = 0; k < migrants; ++k) {
      const int i = order[static_cast<std::size_t>(k)];
      sim.schedule_at(rng.uniform_int(seconds(14), seconds(30)),
                      SimCategory::kWorkload, [this, i] { begin_migrate(i); });
    }
    for (int k = migrants; k < migrants + restarters; ++k) {
      const int i = order[static_cast<std::size_t>(k)];
      const SimTime stop_at = rng.uniform_int(seconds(14), seconds(28));
      const SimTime restart_at =
          stop_at + rng.uniform_int(milliseconds(500), seconds(2));
      sim.schedule_at(stop_at, SimCategory::kWorkload, [this, i] { stop(i); });
      sim.schedule_at(restart_at, SimCategory::kWorkload,
                      [this, i] { begin_deploy(i); });
    }
  }

  Network& net() override { return tb_.net; }
  SimTime horizon() const override { return kFleetHorizon; }

  void collect(Outcome& out) override {
    out.deploy = deploys_;
    out.handover = handovers_;
    out.attempted = attempted_;
    out.failed = failed_;
    for (const Session& s : sessions_) {
      if (s.pending != Op::kNone) ++out.failed;
    }
    count_links(tb_.net, out);
    for (const auto& agent : tb_.agents) {
      out.client_retransmissions += agent->retransmissions();
    }
    for (const DeploymentServer* s : {tb_.a.server.get(), tb_.b.server.get()}) {
      out.server_deploys += s->deployments_total();
      out.leases_renewed += s->leases_renewed();
      out.nacks += s->nacks_sent();
    }
    const int active = tb_.active_agents();
    if (active != kFleetClients) {
      out.errors.push_back("fleet_churn: " + std::to_string(active) + " of " +
                           std::to_string(kFleetClients) +
                           " sessions active at the horizon");
    }
    if (out.failed != 0) {
      out.errors.push_back("fleet_churn: " + std::to_string(out.failed) +
                           " deploys or migrations did not complete");
    }
  }

  TraceHooks hooks() override {
    TraceHooks h;
    h.switches = {tb_.sw_a, tb_.sw_b};
    h.access_links = tb_.access_links;
    for (int i = 0; i < 64; ++i) {
      h.deploys.emplace_back(tb_.pvnc_for(i), replay_context(i));
    }
    h.install_switch = tb_.sw_a;
    h.bypassed = {"mbox.chain.pkts", "tunnel.esp.pkts", "proto.tcp.segments"};
    return h;
  }
  Chain* any_chain() override {
    for (const auto& agent : tb_.agents) {
      if (agent->state() != SessionState::kActive) continue;
      MboxHost& host = agent->active_server() == tb_.addrs.control_a
                           ? *tb_.a.mbox
                           : *tb_.b.mbox;
      if (Chain* chain = host.chain(agent->chain_id())) return chain;
    }
    return nullptr;
  }

 private:
  enum class Op { kNone, kDeploy, kHandover };
  struct Session {
    Ipv4Addr home;
    Op pending = Op::kNone;
    SimTime op_start = 0;
  };

  // Device i's deployment context, for compile and rule-install replays.
  DeploymentContext replay_context(int i) const {
    DeploymentContext ctx;
    ctx.device = PopulationTestbed::client_addr(i);
    ctx.client_port = 0;
    ctx.wan_port = 0;
    ctx.control = tb_.addrs.control_a;
    ctx.control_port = 1;
    ctx.chain_id = "replay-" + std::to_string(i);
    ctx.cookie = "pvn:replay-" + std::to_string(i);
    return ctx;
  }

  static PopulationConfig config(std::uint64_t seed) {
    PopulationConfig cfg;
    cfg.clients = kFleetClients;
    cfg.seed = seed;
    cfg.lease_duration = kFleetLease;
    return cfg;
  }

  PvnClient& agent(int i) { return *tb_.agents[static_cast<std::size_t>(i)]; }
  Session& session(int i) { return sessions_[static_cast<std::size_t>(i)]; }

  void begin_deploy(int i) {
    Session& s = session(i);
    ++attempted_;
    s.pending = Op::kDeploy;
    s.op_start = tb_.net.sim().now();
    agent(i).start_session(s.home, [this, i](const DeployOutcome& o) {
      Session& s = session(i);
      // Session outcomes also report migrations; those are timed below.
      if (s.pending != Op::kDeploy || !o.ok) return;
      deploys_.push_back(tb_.net.sim().now() - s.op_start);
      s.pending = Op::kNone;
    });
  }

  void begin_migrate(int i) {
    Session& s = session(i);
    ++attempted_;
    s.pending = Op::kHandover;
    s.op_start = tb_.net.sim().now();
    const Ipv4Addr target = s.home == tb_.addrs.control_a ? tb_.addrs.control_b
                                                          : tb_.addrs.control_a;
    agent(i).migrate(target, milliseconds(300),
                     [this, i, target](const DeployOutcome& o) {
                       Session& s = session(i);
                       if (!o.ok) {
                         ++failed_;
                         s.pending = Op::kNone;
                         return;
                       }
                       handovers_.push_back(tb_.net.sim().now() - s.op_start);
                       s.pending = Op::kNone;
                       s.home = target;
                     });
  }

  void stop(int i) {
    PvnClient& a = agent(i);
    const Ipv4Addr server = a.active_server();
    a.stop_session();
    a.teardown(server);
  }

  PopulationTestbed tb_;
  std::vector<Session> sessions_;
  std::vector<SimDuration> deploys_;
  std::vector<SimDuration> handovers_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- chain_web / tunnel_mix ---------------------------------------------------
//
// One Testbed device with standard_pvnc (tls-validator, dns-validator,
// pii-detector, tracker-blocker) on a 6 s lease. From 1 s on, 40
// operations per second arrive as a seeded Poisson process for 60 s: small
// pages, 20 KB objects, 250 KB /video/ segments, DNS lookups through the
// dns-validator, and PII-bearing posts the pii-detector blocks by design.
// The offered load is ~10 Mbit/s on the 50 Mbit/s access link. tunnel_mix
// adds a kTunnel policy that sends all video-server traffic through ESP to
// the cloud gateway. README.md gives the basis of each share and the rate:
// the video share is set from a published traffic figure, the rest are
// arbitrary.

constexpr SimTime kTrafficStart = seconds(1);
constexpr SimDuration kTrafficSeconds = seconds(60);
constexpr std::size_t kOps = 40 * 60;
constexpr SimTime kWebHorizon = kTrafficStart + kTrafficSeconds + seconds(5);
constexpr std::size_t kVideoSegmentBytes = 250 * 1000;

enum class Mix { kSmallPage, kObject, kVideo, kDns, kPiiPost };
constexpr std::pair<Mix, double> kMixShares[] = {
    {Mix::kSmallPage, 0.45}, {Mix::kObject, 0.27}, {Mix::kVideo, 0.10},
    {Mix::kDns, 0.13},       {Mix::kPiiPost, 0.05},
};

class WebChain final : public Workload {
 public:
  WebChain(std::uint64_t seed, bool tunnel)
      : tb_(config(seed)),
        http_(*tb_.client),
        resolver_(*tb_.client, {tb_.addrs.dns}, &tb_.dns_trusted,
                  tb_.dns_zone_key.public_key()),
        pvnc_(make_pvnc(tb_, tunnel)),
        agent_(*tb_.client, pvnc_),
        tunnel_(tunnel) {
    Rng rng(seed ^ 0x3eb7c4a1u);
    Simulator& sim = tb_.net.sim();
    ++attempted_;
    sim.schedule_at(0, SimCategory::kWorkload, [this] {
      agent_.start_session(tb_.addrs.control, [this](const DeployOutcome& o) {
        if (deployed_ || !o.ok) return;
        deployed_ = true;
        deploys_.push_back(tb_.net.sim().now());
        if (on_chain_deployed) {
          on_chain_deployed(DeployedChain{tb_.access_sw, o.chain_id,
                                          tb_.mbox_host->chain(o.chain_id)});
        }
      });
    });
    // A Poisson process conditioned on its count: kOps arrival times drawn
    // uniformly over the window. The mix is exact (only order and timing
    // vary with the seed), so every seed asks for the same amount of work.
    std::vector<SimTime> at(kOps);
    for (SimTime& t : at) {
      t = kTrafficStart + rng.uniform_int(0, kTrafficSeconds - 1);
    }
    std::sort(at.begin(), at.end());
    std::vector<Mix> kinds;
    for (const auto& [mix, share] : kMixShares) {
      kinds.insert(kinds.end(), static_cast<std::size_t>(share * kOps), mix);
    }
    kinds.resize(kOps, Mix::kSmallPage);
    for (std::size_t i = kinds.size() - 1; i > 0; --i) {
      std::swap(kinds[i], kinds[rng.next_below(i + 1)]);
    }
    for (std::size_t i = 0; i < kOps; ++i) {
      Op o;
      o.mix = kinds[i];
      o.at = at[i];
      switch (o.mix) {
        case Mix::kSmallPage:
          o.server = tb_.addrs.web;
          o.bytes = static_cast<std::size_t>(rng.uniform_int(200, 1400));
          o.path = "/bytes/" + std::to_string(o.bytes);
          break;
        case Mix::kObject:
          o.server = tb_.addrs.web;
          o.bytes = 20 * 1000;
          o.path = "/bytes/20000";
          break;
        case Mix::kVideo:
          o.server = tb_.addrs.video;
          o.bytes = kVideoSegmentBytes;
          o.path = "/video/seg-" + std::to_string(i);
          break;
        case Mix::kDns:
          o.server = rng.bernoulli(0.5) ? tb_.addrs.web : tb_.addrs.video;
          o.path = o.server == tb_.addrs.web ? "web.example" : "video.example";
          break;
        case Mix::kPiiPost:
          o.server = tb_.addrs.web;
          o.path = "/collect";
          o.header = "imei=" + std::to_string(rng.uniform_int(
                                   100000000000000LL, 999999999999999LL));
          break;
      }
      ops_.push_back(std::move(o));
      sim.schedule_at(at[i], SimCategory::kWorkload, [this, i] { start(i); });
    }
    attempted_ += ops_.size();
  }

  Network& net() override { return tb_.net; }
  SimTime horizon() const override { return kWebHorizon; }

  void collect(Outcome& out) override {
    out.deploy = deploys_;
    out.fetch = fetches_;
    out.attempted = attempted_;
    out.goodput_bytes = goodput_bytes_;
    out.traffic_window = kTrafficSeconds;
    std::uint64_t failed = deployed_ ? 0 : 1;
    std::uint64_t posts = 0;
    for (const Op& o : ops_) {
      if (o.mix == Mix::kPiiPost) {
        ++posts;
        if (o.state == State::kDone) {
          out.errors.push_back("PII post at " + format_duration(o.at) +
                               " was answered instead of blocked");
        } else {
          ++out.blocked;
        }
        continue;
      }
      if (o.state != State::kDone) {
        ++failed;
        if (out.errors.size() < 8) {
          out.errors.push_back(std::string(o.mix == Mix::kDns ? "lookup "
                                                                : "fetch ") +
                               o.path + " at " + format_duration(o.at) +
                               (o.state == State::kBad ? " returned a wrong answer"
                                                       : " did not complete"));
        }
      }
    }
    out.failed = failed;
    const PiiDetector* pii = find_pii();
    if (posts > 0 && (pii == nullptr || pii->leaks_found() < posts)) {
      out.errors.push_back("pii-detector flagged fewer leaks than the " +
                           std::to_string(posts) + " PII posts");
    }
    if (agent_.state() != SessionState::kActive) {
      out.errors.push_back(std::string("device session is ") +
                           to_string(agent_.state()) + " at the horizon");
    }
    out.auth_failures = tb_.esp_decap_proc->auth_failures() +
                        tb_.cloud_gw->auth_failures();
    if (out.auth_failures != 0) {
      out.errors.push_back("tunnel.auth_failures = " +
                           std::to_string(out.auth_failures));
    }
    out.client_retransmissions = agent_.retransmissions();
    out.server_deploys = tb_.server->deployments_total();
    out.leases_renewed = tb_.server->leases_renewed();
    out.nacks = tb_.server->nacks_sent();
    out.dns_queries = tb_.dns_server->queries_served();
    count_links(tb_.net, out);
  }

  TraceHooks hooks() override {
    TraceHooks h;
    h.switches = {tb_.access_sw};
    h.access_links = {tb_.access_link};
    h.decap_switch = tb_.access_sw;
    h.decap = tb_.esp_decap_proc.get();
    for (int i = 0; i < 16; ++i) {
      h.deploys.emplace_back(pvnc_, replay_context(i));
    }
    h.install_switch = tb_.access_sw;
    if (!tunnel_) h.bypassed = {"tunnel.esp.pkts"};
    return h;
  }
  Chain* any_chain() override {
    return tb_.mbox_host->chain(agent_.chain_id());
  }

 private:
  enum class State { kPending, kDone, kBad };
  struct Op {
    Mix mix = Mix::kSmallPage;
    SimTime at = 0;
    Ipv4Addr server;
    std::string path;  // URL path, or the DNS name
    std::size_t bytes = 0;
    std::string header;
    State state = State::kPending;
  };

  // The device's deployment context under replay chain id i.
  DeploymentContext replay_context(int i) const {
    DeploymentContext ctx;
    ctx.device = tb_.addrs.client;
    ctx.client_port = 0;
    ctx.wan_port = 1;
    ctx.control = tb_.addrs.control;
    ctx.control_port = 2;
    ctx.chain_id = "replay-" + std::to_string(i);
    ctx.cookie = "pvn:replay-" + std::to_string(i);
    return ctx;
  }

  static TestbedConfig config(std::uint64_t seed) {
    TestbedConfig cfg;
    cfg.seed = seed;
    cfg.lease_duration = seconds(6);
    return cfg;
  }

  static Pvnc make_pvnc(const Testbed& tb, bool tunnel) {
    Pvnc pvnc = tb.standard_pvnc("bench-phone");
    if (tunnel) {
      PvncPolicy policy;
      policy.kind = PvncPolicy::Kind::kTunnel;
      policy.match.dst = Prefix{tb.addrs.video, 32};
      policy.gateway = tb.addrs.cloud_gw;
      pvnc.policies.push_back(policy);
    }
    return pvnc;
  }

  void start(std::size_t index) {
    Op& o = ops_[index];
    switch (o.mix) {
      case Mix::kSmallPage:
      case Mix::kObject:
      case Mix::kVideo:
        http_.fetch(o.server, 80, o.path,
                    [this, index](const HttpResponse& resp, const FetchTiming& t) {
                      Op& o = ops_[index];
                      if (!t.ok || resp.body.size() != o.bytes) {
                        o.state = State::kBad;
                        return;
                      }
                      o.state = State::kDone;
                      fetches_.push_back(tb_.net.sim().now() - o.at);
                      goodput_bytes_ += resp.body.size();
                    });
        break;
      case Mix::kDns:
        resolver_.resolve(o.path, [this, index](const DnsResult& r) {
          Op& o = ops_[index];
          o.state = r.status == DnsResult::Status::kOk && r.authenticated &&
                            r.addr == o.server
                        ? State::kDone
                        : State::kBad;
        });
        break;
      case Mix::kPiiPost:
        http_.fetch(o.server, 80, o.path,
                    [this, index](const HttpResponse&, const FetchTiming& t) {
                      if (t.ok) ops_[index].state = State::kDone;
                    },
                    {{"X-Telemetry", o.header}}, to_bytes("report " + o.header),
                    "POST");
        break;
    }
  }

  const PiiDetector* find_pii() {
    const Chain* chain = any_chain();
    if (chain == nullptr) return nullptr;
    for (Middlebox* m : chain->modules()) {
      if (const auto* pii = dynamic_cast<const PiiDetector*>(m)) return pii;
    }
    return nullptr;
  }

  Testbed tb_;
  HttpClient http_;
  StubResolver resolver_;
  Pvnc pvnc_;
  PvnClient agent_;
  bool tunnel_;
  std::vector<Op> ops_;
  bool deployed_ = false;
  std::vector<SimDuration> deploys_;
  std::vector<SimDuration> fetches_;
  std::uint64_t goodput_bytes_ = 0;
  std::uint64_t attempted_ = 0;
};

}  // namespace

std::uint64_t Outcome::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto* v : {&deploy, &handover, &fetch}) {
    h = fnv(h, v->size());
    for (SimDuration d : *v) h = fnv(h, static_cast<std::uint64_t>(d));
  }
  for (std::uint64_t x : {attempted, failed, blocked, goodput_bytes,
                          static_cast<std::uint64_t>(traffic_window),
                          link_pkts, link_bytes, link_drops, events,
                          static_cast<std::uint64_t>(heap_peak),
                          client_retransmissions, server_deploys,
                          leases_renewed, nacks, dns_queries, auth_failures}) {
    h = fnv(h, x);
  }
  return h;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fleet_churn", "chain_web",
                                                 "tunnel_mix"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "fleet_churn") return std::make_unique<FleetChurn>(seed);
  if (name == "chain_web") return std::make_unique<WebChain>(seed, false);
  if (name == "tunnel_mix") return std::make_unique<WebChain>(seed, true);
  return nullptr;
}

}  // namespace pvnbench

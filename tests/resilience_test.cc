// Fault injection and control-plane resilience: the netsim fault injector,
// discovery/deploy retransmission over lossy links, idempotent deployment,
// deployment leases (renewal, expiry, memory reclamation), and failover to
// the device VPN tunnel when the PVN dies mid-session (§3.3).
#include <gtest/gtest.h>

#include <set>

#include "fixtures.h"
#include "netsim/faults.h"
#include "proto/http.h"
#include "proto/l4.h"
#include "testbed/testbed.h"

namespace pvn {
namespace {

using testing::DumbbellTopo;

// --- Fault injector ---------------------------------------------------------------

TEST(FaultInjector, LinkFlapDropsTrafficWhileDown) {
  DumbbellTopo topo;
  int received = 0;
  topo.server->bind_udp(7000, [&](Ipv4Addr, Port, Port, const Bytes&) {
    ++received;
  });
  FaultInjector faults(topo.net);
  faults.link_flap(*topo.access, seconds(2), seconds(3));  // down [2s, 5s)

  // One datagram per second for 10 s; those in the down window vanish.
  for (int i = 0; i < 10; ++i) {
    topo.net.sim().schedule_at(seconds(i) + milliseconds(500), [&] {
      topo.client->send_udp(topo.server->addr(), 7000, 7000, to_bytes("ping"));
    });
  }
  topo.net.sim().run();
  EXPECT_EQ(received, 7);  // sends at 2.5s, 3.5s, 4.5s lost
  ASSERT_EQ(faults.events().size(), 2u);
  EXPECT_EQ(faults.events()[0].kind, "link-down");
  EXPECT_EQ(faults.events()[0].at, seconds(2));
  EXPECT_EQ(faults.events()[1].kind, "link-up");
  EXPECT_EQ(faults.events()[1].at, seconds(5));
}

TEST(FaultInjector, NodeCrashDiscardsSendsAndDeliveries) {
  DumbbellTopo topo;
  int received = 0;
  topo.server->bind_udp(7000, [&](Ipv4Addr, Port, Port, const Bytes&) {
    ++received;
  });
  FaultInjector faults(topo.net);
  faults.node_crash(*topo.server, seconds(2), seconds(2));  // down [2s, 4s)
  for (int i = 0; i < 6; ++i) {
    topo.net.sim().schedule_at(seconds(i) + milliseconds(500), [&] {
      topo.client->send_udp(topo.server->addr(), 7000, 7000, to_bytes("ping"));
    });
  }
  topo.net.sim().run();
  EXPECT_EQ(received, 4);  // sends at 2.5s, 3.5s arrive at a dead node
  EXPECT_GT(topo.server->dropped_while_down(), 0u);
}

TEST(FaultInjector, LossBurstRestoresThePreviousLossRate) {
  LinkParams lossy;
  lossy.loss = 0.05;
  DumbbellTopo topo(lossy);
  FaultInjector faults(topo.net);
  faults.loss_burst(*topo.access, seconds(1), seconds(1), 1.0);

  int received = 0;
  topo.server->bind_udp(7000, [&](Ipv4Addr, Port, Port, const Bytes&) {
    ++received;
  });
  // Inside the burst nothing gets through.
  for (int i = 0; i < 20; ++i) {
    topo.net.sim().schedule_at(seconds(1) + milliseconds(10 * i + 5), [&] {
      topo.client->send_udp(topo.server->addr(), 7000, 7000, to_bytes("x"));
    });
  }
  topo.net.sim().run_until(seconds(2));
  EXPECT_EQ(received, 0);
  // After the burst the link is back to its configured 5% loss.
  for (int i = 0; i < 100; ++i) {
    topo.net.sim().schedule_at(seconds(3) + milliseconds(10 * i), [&] {
      topo.client->send_udp(topo.server->addr(), 7000, 7000, to_bytes("x"));
    });
  }
  topo.net.sim().run();
  EXPECT_GT(received, 50);
}

// Regression: two loss bursts overlapping on the same link used to restore
// last-writer-wins — the second burst captured the *first burst's* elevated
// rate as its "previous" value and wrote it back at its end, leaving the link
// permanently lossy. The overlay stack must restore the true baseline.
TEST(FaultInjector, OverlappingLossBurstsRestoreTheBaselineRate) {
  LinkParams lossy;
  lossy.loss = 0.05;
  DumbbellTopo topo(lossy);
  FaultInjector faults(topo.net);
  // Burst A [1s, 3s) @ 1.0 and burst B [2s, 4s) @ 0.5 overlap in [2s, 3s).
  faults.loss_burst(*topo.access, seconds(1), seconds(2), 1.0);
  faults.loss_burst(*topo.access, seconds(2), seconds(2), 0.5);

  std::vector<double> probes;
  for (int at_ms : {1500, 2500, 3500, 4500}) {
    topo.net.sim().schedule_at(milliseconds(at_ms), [&] {
      probes.push_back(topo.access->params().loss);
    });
  }
  topo.net.sim().run();
  ASSERT_EQ(probes.size(), 4u);
  EXPECT_DOUBLE_EQ(probes[0], 1.0);   // A alone
  EXPECT_DOUBLE_EQ(probes[1], 0.5);   // B is the most recent overlay
  EXPECT_DOUBLE_EQ(probes[2], 0.5);   // A ended; B still active
  EXPECT_DOUBLE_EQ(probes[3], 0.05);  // both over: baseline, not A's 1.0
  EXPECT_EQ(faults.active_loss_bursts(*topo.access), 0u);
}

// A burst nested entirely inside a longer one: when the inner burst ends the
// outer burst's rate must come back (not the baseline), and the baseline only
// returns when the outer window closes.
TEST(FaultInjector, NestedLossBurstRevealsTheOuterRateThenBaseline) {
  DumbbellTopo topo;  // default lossless baseline
  FaultInjector faults(topo.net);
  faults.loss_burst(*topo.access, seconds(1), seconds(4), 0.8);  // [1s, 5s)
  faults.loss_burst(*topo.access, seconds(2), seconds(1), 0.3);  // [2s, 3s)

  std::vector<double> probes;
  for (int at_ms : {2500, 3500, 5500}) {
    topo.net.sim().schedule_at(milliseconds(at_ms), [&] {
      probes.push_back(topo.access->params().loss);
    });
  }
  topo.net.sim().run();
  ASSERT_EQ(probes.size(), 3u);
  EXPECT_DOUBLE_EQ(probes[0], 0.3);  // inner overlay on top
  EXPECT_DOUBLE_EQ(probes[1], 0.8);  // inner ended: outer rate, not 0.0
  EXPECT_DOUBLE_EQ(probes[2], 0.0);  // outer ended: true baseline
}

// Regression: overlapping flap windows used to bring the link up at the
// *first* window's end. Down-holds are reference-counted, so the link stays
// down until the last overlapping window closes.
TEST(FaultInjector, OverlappingLinkFlapsStayDownUntilTheLastWindowEnds) {
  DumbbellTopo topo;
  FaultInjector faults(topo.net);
  faults.link_flap(*topo.access, seconds(1), seconds(2));  // down [1s, 3s)
  faults.link_flap(*topo.access, seconds(2), seconds(2));  // down [2s, 4s)

  std::vector<bool> up_probes;
  for (int at_ms : {1500, 2500, 3500, 4500}) {
    topo.net.sim().schedule_at(milliseconds(at_ms), [&] {
      up_probes.push_back(topo.access->is_up());
    });
  }
  topo.net.sim().run();
  ASSERT_EQ(up_probes.size(), 4u);
  EXPECT_FALSE(up_probes[0]);
  EXPECT_FALSE(up_probes[1]);
  EXPECT_FALSE(up_probes[2]);  // first window ended but second holds it down
  EXPECT_TRUE(up_probes[3]);
  // Exactly one down/up transition pair is recorded.
  ASSERT_EQ(faults.events().size(), 2u);
  EXPECT_EQ(faults.events()[0].kind, "link-down");
  EXPECT_EQ(faults.events()[0].at, seconds(1));
  EXPECT_EQ(faults.events()[1].kind, "link-up");
  EXPECT_EQ(faults.events()[1].at, seconds(4));
  EXPECT_EQ(faults.link_down_holds(*topo.access), 0);
}

// Same reference-counting contract for node crash windows.
TEST(FaultInjector, OverlappingNodeCrashWindowsRestoreAtTheLastEnd) {
  DumbbellTopo topo;
  FaultInjector faults(topo.net);
  faults.node_crash(*topo.server, seconds(1), seconds(2));  // down [1s, 3s)
  faults.node_crash(*topo.server, seconds(2), seconds(2));  // down [2s, 4s)

  std::vector<bool> up_probes;
  for (int at_ms : {3500, 4500}) {
    topo.net.sim().schedule_at(milliseconds(at_ms), [&] {
      up_probes.push_back(topo.server->is_up());
    });
  }
  topo.net.sim().run();
  ASSERT_EQ(up_probes.size(), 2u);
  EXPECT_FALSE(up_probes[0]);  // first window over, second still holds
  EXPECT_TRUE(up_probes[1]);
  EXPECT_EQ(faults.node_down_holds(*topo.server), 0);
}

// Callback-form crash windows on the same named target also coalesce: the
// crash callback runs once on the first window, the restart callback once
// when the last window ends.
TEST(FaultInjector, OverlappingCallbackCrashWindowsCoalesce) {
  DumbbellTopo topo;
  FaultInjector faults(topo.net);
  int crashes = 0, restarts = 0;
  SimTime restarted_at = 0;
  auto arm = [&](SimTime at) {
    topo.net.sim().schedule_at(at, [&] {
      faults.crash_and_restart("pool", seconds(2),
                               [&] { ++crashes; },
                               [&] {
                                 ++restarts;
                                 restarted_at = topo.net.sim().now();
                               });
    });
  };
  arm(seconds(1));  // window [1s, 3s)
  arm(seconds(2));  // window [2s, 4s)
  topo.net.sim().run();
  EXPECT_EQ(crashes, 1);
  EXPECT_EQ(restarts, 1);
  EXPECT_EQ(restarted_at, seconds(4));
}

TEST(FaultInjector, RandomFlapsAreDeterministicPerSeed) {
  std::vector<std::vector<FaultEvent>> timelines;
  for (int run = 0; run < 2; ++run) {
    DumbbellTopo topo({}, {}, /*seed=*/42);
    FaultInjector faults(topo.net);
    faults.random_flaps(*topo.access, seconds(1), seconds(60), seconds(5),
                        seconds(1));
    topo.net.sim().run();
    timelines.push_back(faults.events());
  }
  ASSERT_EQ(timelines[0].size(), timelines[1].size());
  EXPECT_GT(timelines[0].size(), 2u);
  for (std::size_t i = 0; i < timelines[0].size(); ++i) {
    EXPECT_EQ(timelines[0][i].at, timelines[1][i].at);
    EXPECT_EQ(timelines[0][i].kind, timelines[1][i].kind);
  }
}

TEST(FaultInjector, CrashAndRestartTakesTheNodeDownThenBack) {
  DumbbellTopo topo;
  int received = 0;
  topo.server->bind_udp(7000, [&](Ipv4Addr, Port, Port, const Bytes&) {
    ++received;
  });
  FaultInjector faults(topo.net);
  // Down for [1s, 3s): the transient flavour of crash_node/restore_node.
  topo.net.sim().schedule_at(seconds(1), [&] {
    faults.crash_and_restart(*topo.server, seconds(2));
  });
  for (int i = 0; i < 6; ++i) {
    topo.net.sim().schedule_at(seconds(i) + milliseconds(500), [&] {
      topo.client->send_udp(topo.server->addr(), 7000, 7000, to_bytes("ping"));
    });
  }
  topo.net.sim().run();
  EXPECT_EQ(received, 4);  // sends at 1.5s and 2.5s hit a dead node
  ASSERT_EQ(faults.events().size(), 2u);
  EXPECT_EQ(faults.events()[0].kind, "node-crash");
  EXPECT_EQ(faults.events()[0].at, seconds(1));
  EXPECT_EQ(faults.events()[1].kind, "node-restart");
  EXPECT_EQ(faults.events()[1].at, seconds(3));
}

TEST(FaultInjector, CrashAndRestartCallbackFormDrivesMboxRecovery) {
  // The callback form injects the same fault into components that are not
  // netsim Nodes — here the middlebox compute pool — and records both
  // transitions, so a full failover + recovery runs from one injection.
  TestbedConfig cfg;
  cfg.lease_duration = seconds(2);
  Testbed tb(cfg);
  ClientConfig ccfg;
  ccfg.constraints.required_modules = {"tls-validator"};
  ccfg.session.fallback_retry = seconds(1);
  PvnClient agent(*tb.client, tb.standard_pvnc(), ccfg);
  agent.set_fallback(tb.device_tunnel.get());
  agent.start_session(tb.addrs.control);
  tb.net.sim().run_until(seconds(1));
  ASSERT_EQ(agent.state(), SessionState::kActive);

  tb.net.sim().schedule_at(seconds(2), [&] {
    tb.faults->crash_and_restart("mbox-pool", seconds(5),
                                 [&] { tb.mbox_host->crash(); },
                                 [&] { tb.mbox_host->restart(); });
  });
  tb.net.sim().run_until(seconds(5));
  EXPECT_EQ(agent.state(), SessionState::kFallback);
  EXPECT_EQ(agent.failovers(), 1u);

  tb.net.sim().run_until(seconds(20));
  EXPECT_EQ(agent.state(), SessionState::kActive);
  EXPECT_EQ(agent.recoveries(), 1u);
  ASSERT_EQ(tb.faults->events().size(), 2u);
  EXPECT_EQ(tb.faults->events()[0].kind, "node-crash");
  EXPECT_EQ(tb.faults->events()[0].target, "mbox-pool");
  EXPECT_EQ(tb.faults->events()[1].kind, "node-restart");
  EXPECT_EQ(tb.faults->events()[1].at, seconds(7));
}

TEST(FaultInjector, PartitionTakesAllListedLinksDown) {
  DumbbellTopo topo;
  FaultInjector faults(topo.net);
  faults.partition({topo.access, topo.core}, seconds(1), seconds(2));
  topo.net.sim().run_until(seconds(2));
  EXPECT_FALSE(topo.access->is_up());
  EXPECT_FALSE(topo.core->is_up());
  topo.net.sim().run();
  EXPECT_TRUE(topo.access->is_up());
  EXPECT_TRUE(topo.core->is_up());
}

// --- Acceptance (a): retransmission beats a lossy control channel -------------------

TEST(Resilience, DeploySucceedsOver30PercentLossViaRetransmission) {
  TestbedConfig cfg;
  cfg.access.loss = 0.30;
  cfg.seed = 7;
  Testbed tb(cfg);
  ClientConfig ccfg;
  ccfg.retry.max_discovery_rounds = 8;
  ccfg.retry.max_deploy_attempts = 8;
  ccfg.deploy_timeout = seconds(20);
  const DeployOutcome out = tb.deploy(tb.standard_pvnc(), ccfg);
  ASSERT_TRUE(out.ok) << out.failure;
  EXPECT_EQ(tb.server->deployments_active(), 1u);
  // The win must come from retrying, not luck: across several seeds at 30%
  // loss at least one deployment needs more than one round or attempt.
  int retries_used = out.discovery_rounds - 1 + out.deploy_attempts - 1;
  for (std::uint64_t seed = 8; seed <= 12; ++seed) {
    TestbedConfig c2 = cfg;
    c2.seed = seed;
    Testbed tb2(c2);
    const DeployOutcome o2 = tb2.deploy(tb2.standard_pvnc(), ccfg);
    EXPECT_TRUE(o2.ok) << "seed " << seed << ": " << o2.failure;
    retries_used += o2.discovery_rounds - 1 + o2.deploy_attempts - 1;
  }
  EXPECT_GT(retries_used, 0);
}

TEST(Resilience, HappyPathSendsNoRetransmissions) {
  Testbed tb;
  const DeployOutcome out = tb.deploy(tb.standard_pvnc());
  ASSERT_TRUE(out.ok) << out.failure;
  EXPECT_EQ(out.discovery_rounds, 1);
  EXPECT_EQ(out.deploy_attempts, 1);
}

// --- Idempotent deployment ----------------------------------------------------------

TEST(Resilience, DuplicateDeployRequestsDeployOnceAndReack) {
  Testbed tb;
  DeployRequest req;
  req.seq = 42;
  req.device_id = "alice-phone";
  req.pvnc = tb.standard_pvnc();
  req.payment = tb.store->price_of(req.pvnc.module_names());
  const Bytes wire = wrap(PvnMsgType::kDeployRequest, req.encode(), {});

  int acks = 0;
  tb.client->bind_udp(4000, [&](Ipv4Addr, Port, Port, const Bytes& payload) {
    const auto frame = unwrap_frame(payload);
    if (frame && frame->type == PvnMsgType::kDeployAck) ++acks;
  });
  // Two copies in flight at once: the second must not deploy a second chain.
  tb.client->send_udp(tb.addrs.control, 4000, kPvnPort, wire);
  tb.client->send_udp(tb.addrs.control, 4000, kPvnPort, wire);
  tb.net.sim().run();
  EXPECT_EQ(tb.server->deployments_total(), 1u);
  EXPECT_EQ(acks, 1);
  EXPECT_EQ(tb.server->duplicate_deploys(), 1u);

  // A late retransmission (the ack could have been lost) gets the cached
  // ack back instead of a fresh deployment.
  tb.client->send_udp(tb.addrs.control, 4000, kPvnPort, wire);
  tb.net.sim().run();
  EXPECT_EQ(tb.server->deployments_total(), 1u);
  EXPECT_EQ(acks, 2);
  EXPECT_EQ(tb.server->duplicate_deploys(), 2u);
}

// --- Offer expiry between collection and deployment ---------------------------------

TEST(Resilience, OfferExpiringBeforeRetransmitRestartsDiscovery) {
  Testbed tb;
  // Offers outlive the collection window but not the deploy retransmission
  // timeout; the server goes silent on deploys, so every retransmission
  // finds its offer expired and must restart discovery instead.
  tb.server.reset();
  ServerConfig scfg;
  scfg.switch_name = Testbed::kSwitchName;
  scfg.offer_ttl = milliseconds(600);
  auto server = std::make_unique<DeploymentServer>(
      *tb.control, *tb.store, *tb.mbox_host, *tb.controller, *tb.ledger, scfg);
  server->drop_deploy_requests(true);

  ClientConfig ccfg;
  ccfg.retry.max_discovery_rounds = 2;
  const DeployOutcome out = tb.deploy(tb.standard_pvnc(), ccfg);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.failure, "offer expired before deployment");
  // The expiry triggered a fresh discovery round (new offer), not a blind
  // retransmission against the stale one.
  EXPECT_EQ(out.discovery_rounds, 2);
}

// --- Leases -------------------------------------------------------------------------

TEST(Resilience, DeployAckCarriesTheLease) {
  TestbedConfig cfg;
  cfg.lease_duration = seconds(5);
  Testbed tb(cfg);
  const DeployOutcome out = tb.deploy(tb.standard_pvnc());
  ASSERT_TRUE(out.ok) << out.failure;
  EXPECT_EQ(out.lease_duration, seconds(5));
}

// Acceptance (c): a client that crashes (never renews) has its lease
// expired and the middlebox memory returns to the pre-deploy value.
TEST(Resilience, CrashedClientLeaseExpiresAndMemoryIsReclaimed) {
  TestbedConfig cfg;
  cfg.lease_duration = seconds(2);
  Testbed tb(cfg);
  const std::int64_t memory_before = tb.mbox_host->memory_in_use();

  PvnClient agent(*tb.client, tb.standard_pvnc());
  DeployOutcome out;
  agent.discover_and_deploy(tb.addrs.control, [&](const DeployOutcome& o) {
    out = o;
  });
  tb.net.sim().run_until(seconds(1));
  ASSERT_TRUE(out.ok) << out.failure;
  EXPECT_EQ(tb.server->deployments_active(), 1u);
  EXPECT_GT(tb.mbox_host->memory_in_use(), memory_before);

  // The client never renews (a one-shot agent models a crashed device).
  tb.net.sim().run_until(seconds(8));
  EXPECT_EQ(tb.server->leases_expired(), 1u);
  EXPECT_EQ(tb.server->deployments_active(), 0u);
  EXPECT_EQ(tb.mbox_host->memory_in_use(), memory_before);
}

// Regression: renewal periods must be jittered per session. Without jitter
// a fleet of clients deployed in the same instant renews in lockstep
// forever — a thundering herd at the deployment server every period.
TEST(Resilience, RenewalsAreJitteredNotLockstep) {
  TestbedConfig cfg;
  cfg.lease_duration = seconds(3);  // nominal renewal period: 1 s
  Testbed tb(cfg);
  std::vector<SimTime> renew_times;
  tb.access_link->add_tap([&](const Packet& pkt, const Node&, const Node&) {
    if (pkt.ip.dst != tb.addrs.control) return;
    const auto dgram = parse_udp(pkt.l4);
    if (!dgram || dgram->hdr.dst_port != kPvnPort) return;
    const auto frame = unwrap_frame(dgram->payload);
    if (frame && frame->type == PvnMsgType::kLeaseRenew) {
      renew_times.push_back(tb.net.sim().now());
    }
  });
  PvnClient agent(*tb.client, tb.standard_pvnc());
  agent.start_session(tb.addrs.control);
  tb.net.sim().run_until(seconds(15));
  ASSERT_GE(renew_times.size(), 8u);

  const SimDuration nominal = cfg.lease_duration / 3;
  std::set<SimDuration> gaps;
  for (std::size_t i = 1; i < renew_times.size(); ++i) {
    const SimDuration gap = renew_times[i] - renew_times[i - 1];
    gaps.insert(gap);
    // Each period is drawn from [1-j, 1+j] around the nominal (j = 0.1).
    EXPECT_GE(gap, nominal * 85 / 100);
    EXPECT_LE(gap, nominal * 115 / 100);
  }
  // The periods differ from each other: two sessions started in the same
  // tick drift apart instead of renewing in the same instant forever.
  EXPECT_GT(gaps.size(), 1u);
}

TEST(Resilience, RenewingSessionKeepsTheLeaseAlive) {
  TestbedConfig cfg;
  cfg.lease_duration = seconds(1);
  Testbed tb(cfg);
  PvnClient agent(*tb.client, tb.standard_pvnc());
  agent.start_session(tb.addrs.control);
  tb.net.sim().run_until(seconds(6));
  EXPECT_EQ(agent.state(), SessionState::kActive);
  EXPECT_EQ(tb.server->deployments_active(), 1u);
  EXPECT_EQ(tb.server->leases_expired(), 0u);
  EXPECT_GE(agent.renews_acked(), 3u);
  agent.stop_session();
  // With the session stopped the lease runs out and the server reclaims.
  tb.net.sim().run_until(seconds(12));
  EXPECT_EQ(tb.server->deployments_active(), 0u);
  EXPECT_EQ(tb.server->leases_expired(), 1u);
}

// --- Acceptance (b): MboxHost crash -> tunnel failover -> recovery ------------------

TEST(Resilience, MboxCrashFailsOverToTunnelAndRecoversOnRestart) {
  TestbedConfig cfg;
  cfg.lease_duration = seconds(2);
  Testbed tb(cfg);

  ClientConfig ccfg;
  // tls-validator is a hard constraint: losing it cannot be degraded
  // around, so the crash forces a full failover.
  ccfg.constraints.required_modules = {"tls-validator"};
  ccfg.session.fallback_retry = seconds(1);
  PvnClient agent(*tb.client, tb.standard_pvnc(), ccfg);
  agent.set_fallback(tb.device_tunnel.get());
  agent.start_session(tb.addrs.control);

  tb.net.sim().run_until(seconds(1));
  ASSERT_EQ(agent.state(), SessionState::kActive);
  EXPECT_FALSE(tb.device_tunnel->active());

  // Mid-session middlebox host crash.
  const SimTime crash_at = seconds(2);
  tb.net.sim().schedule_at(crash_at, [&] { tb.mbox_host->crash(); });
  // Within one lease period the client must have noticed (refused or
  // missed renewal) and switched to the VPN tunnel.
  tb.net.sim().run_until(crash_at + cfg.lease_duration);
  EXPECT_EQ(agent.state(), SessionState::kFallback);
  EXPECT_TRUE(tb.device_tunnel->active());
  EXPECT_EQ(agent.failovers(), 1u);
  EXPECT_EQ(tb.server->chains_lost(), 1u);

  // Traffic still flows — through the cloud gateway.
  HttpClient http(*tb.client);
  bool fetched = false;
  http.fetch(tb.addrs.web, 80, "/bytes/20000",
             [&](const HttpResponse&, const FetchTiming& t) { fetched = t.ok; });
  tb.net.sim().run_until(seconds(8));
  EXPECT_TRUE(fetched);
  EXPECT_GT(tb.device_tunnel->tunneled(), 0u);
  EXPECT_GT(tb.cloud_gw->decapsulated(), 0u);

  // The middlebox host comes back; the session rediscovers and returns to
  // the PVN path, dropping the tunnel.
  tb.net.sim().schedule_at(seconds(8), [&] { tb.mbox_host->restart(); });
  tb.net.sim().run_until(seconds(20));
  EXPECT_EQ(agent.state(), SessionState::kActive);
  EXPECT_FALSE(tb.device_tunnel->active());
  EXPECT_EQ(agent.recoveries(), 1u);
  EXPECT_EQ(tb.server->deployments_active(), 1u);

  // And the new chain actually processes traffic again.
  bool fetched2 = false;
  http.fetch(tb.addrs.web, 80, "/bytes/20000",
             [&](const HttpResponse&, const FetchTiming& t) { fetched2 = t.ok; });
  tb.net.sim().run_until(seconds(30));
  EXPECT_TRUE(fetched2);
  Chain* chain = tb.mbox_host->chain(agent.chain_id());
  ASSERT_NE(chain, nullptr);
  EXPECT_GT(chain->packets(), 0u);
}

// --- Graceful degradation: optional modules bypass a dead chain ---------------------

TEST(Resilience, OptionalOnlyDeploymentDegradesInsteadOfTearingDown) {
  TestbedConfig cfg;
  cfg.lease_duration = seconds(2);
  Testbed tb(cfg);

  ClientConfig ccfg;  // no required modules: everything is optional
  PvnClient agent(*tb.client, tb.standard_pvnc(), ccfg);
  agent.set_fallback(tb.device_tunnel.get());
  agent.start_session(tb.addrs.control);
  tb.net.sim().run_until(seconds(1));
  ASSERT_EQ(agent.state(), SessionState::kActive);

  tb.net.sim().schedule_at(seconds(2), [&] { tb.mbox_host->crash(); });
  tb.net.sim().run_until(seconds(6));
  // The deployment survives in degraded mode: no failover, chain-divert
  // rules removed, lease renewals still succeed and report the loss.
  EXPECT_EQ(agent.state(), SessionState::kActive);
  EXPECT_FALSE(tb.device_tunnel->active());
  EXPECT_EQ(agent.failovers(), 0u);
  EXPECT_EQ(tb.server->degraded_deployments(), 1u);
  EXPECT_EQ(tb.server->deployments_active(), 1u);
  EXPECT_FALSE(agent.degraded_modules().empty());

  // Traffic flows past the dead chain (no divert rules remain).
  HttpClient http(*tb.client);
  bool fetched = false;
  http.fetch(tb.addrs.web, 80, "/bytes/20000",
             [&](const HttpResponse&, const FetchTiming& t) { fetched = t.ok; });
  tb.net.sim().run_until(seconds(12));
  EXPECT_TRUE(fetched);
  for (const FlowRule& rule : tb.access_sw->table(0).rules()) {
    for (const Action& action : rule.actions) {
      if (const auto* mbox = std::get_if<ActMbox>(&action)) {
        EXPECT_EQ(mbox->chain_id, "esp-decap");  // only the infra rule
      }
    }
  }
}

// --- Stale-server detection via lease refusal ---------------------------------------

TEST(Resilience, ServerRestartRefusesUnknownLeaseAndClientFailsOver) {
  TestbedConfig cfg;
  cfg.lease_duration = seconds(2);
  Testbed tb(cfg);
  PvnClient agent(*tb.client, tb.standard_pvnc());
  agent.set_fallback(tb.device_tunnel.get());
  agent.start_session(tb.addrs.control);
  tb.net.sim().run_until(seconds(1));
  ASSERT_EQ(agent.state(), SessionState::kActive);

  // The access network's server loses all state (process restart). Destroy
  // the old instance first: its destructor unbinds the PVN port and a
  // replacement must bind after that, not before.
  tb.net.sim().schedule_at(seconds(2), [&] {
    tb.server.reset();
    ServerConfig scfg;
    scfg.switch_name = Testbed::kSwitchName;
    scfg.lease_duration = cfg.lease_duration;
    tb.server = std::make_unique<DeploymentServer>(
        *tb.control, *tb.store, *tb.mbox_host, *tb.controller, *tb.ledger,
        scfg);
  });
  // Next renewal is refused ("no such deployment") -> failover -> the
  // fallback rediscovery redeploys against the fresh server.
  tb.net.sim().run_until(seconds(20));
  EXPECT_EQ(agent.state(), SessionState::kActive);
  EXPECT_GE(agent.failovers(), 1u);
  EXPECT_GE(agent.recoveries(), 1u);
  EXPECT_EQ(tb.server->deployments_active(), 1u);
}

}  // namespace
}  // namespace pvn

// Survivability layer (DESIGN.md "Survivability"): checkpoint -> restore ->
// replay equivalence, incremental checkpoints, the standby agent's rejection
// of corrupt/replayed transfers, warm-standby promotion on a primary mbox
// crash, and live migration between access networks with state handoff.
#include <gtest/gtest.h>

#include "mbox/checkpoint.h"
#include "mbox/inline_modules.h"
#include "testbed/roaming.h"
#include "testbed/testbed.h"

namespace pvn {
namespace {

// Deterministic traffic mix: classifiable HTTP-ish flows plus tracker hits.
std::vector<Packet> make_traffic(Network& net, Rng& rng, int n) {
  std::vector<Packet> out;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) {
      out.push_back(net.make_packet(
          Ipv4Addr(10, 0, 0, 2), Ipv4Addr(6, 6, 6, 6), IpProto::kTcp,
          to_bytes("GET /pixel?id=" + std::to_string(i))));
    } else {
      const bool video = rng.bernoulli(0.5);
      out.push_back(net.make_packet(
          Ipv4Addr(10, 0, 0, 2),
          Ipv4Addr(93, 184, 216,
                   static_cast<std::uint8_t>(rng.next_below(250))),
          IpProto::kTcp,
          to_bytes(std::string("HTTP/1.1 200 OK Content-Type: ") +
                   (video ? "video" : "text") + " #" + std::to_string(i))));
    }
  }
  return out;
}

struct StatefulChain {
  Classifier classifier{{{"Content-Type: video", 0x20},
                         {"Content-Type: text", 0x10}}};
  TrackerBlocker blocker{{Ipv4Addr(6, 6, 6, 6)}};
  Chain chain;

  explicit StatefulChain(const std::string& id) : chain(id, microseconds(45)) {
    chain.append(&classifier);
    chain.append(&blocker);
  }

  void feed(const std::vector<Packet>& traffic, std::size_t from,
            std::size_t to) {
    SimDuration delay = 0;
    for (std::size_t i = from; i < to; ++i) {
      (void)chain.process(traffic[i], 0, delay);
    }
  }
};

Classifier* find_classifier(Chain* chain) {
  if (chain == nullptr) return nullptr;
  for (Middlebox* m : chain->modules()) {
    if (m->name() == "classifier") return dynamic_cast<Classifier*>(m);
  }
  return nullptr;
}

// --- Property: checkpoint/restore/replay == uninterrupted execution ---------

class SurvivabilityProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SurvivabilityProperty, CheckpointRestoreReplayMatchesUninterrupted) {
  Rng rng(GetParam());
  Network net(GetParam());
  const std::vector<Packet> traffic = make_traffic(net, rng, 40);
  const std::size_t cut = 15 + rng.next_below(15);

  StatefulChain uninterrupted("chain:u");
  uninterrupted.feed(traffic, 0, traffic.size());

  StatefulChain primary("chain:p");
  primary.feed(traffic, 0, cut);
  const ChainCheckpoint ckpt =
      capture_chain(primary.chain, 1, static_cast<SimTime>(cut));

  // The checkpoint travels over the (simulated) wire; decode what arrives.
  const auto arrived = ChainCheckpoint::decode(ckpt.encode());
  ASSERT_TRUE(arrived.has_value());
  StatefulChain standby("chain:s");
  ASSERT_EQ(restore_chain(standby.chain, *arrived), 2u);
  standby.feed(traffic, cut, traffic.size());

  // Replaying the remainder on the restored chain lands in exactly the
  // state of the chain that never crashed.
  EXPECT_EQ(standby.classifier.serialize_state(),
            uninterrupted.classifier.serialize_state());
  EXPECT_EQ(standby.blocker.serialize_state(),
            uninterrupted.blocker.serialize_state());
  EXPECT_EQ(standby.classifier.flows_classified(),
            uninterrupted.classifier.flows_classified());
  EXPECT_EQ(standby.blocker.blocked(), uninterrupted.blocker.blocked());
  EXPECT_EQ(standby.classifier.packets_seen,
            uninterrupted.classifier.packets_seen);
  EXPECT_EQ(standby.blocker.packets_dropped,
            uninterrupted.blocker.packets_dropped);
}

TEST_P(SurvivabilityProperty, IncrementalCheckpointsOmitUnchangedModules) {
  Rng rng(GetParam());
  Network net(GetParam());
  StatefulChain primary("chain:inc");
  StatefulChain standby("chain:inc");

  std::map<std::string, Digest> digests;
  const std::vector<Packet> traffic = make_traffic(net, rng, 20);
  primary.feed(traffic, 0, traffic.size());
  // First capture against an empty digest map includes every module.
  const ChainCheckpoint full = capture_chain(primary.chain, 1, 0, &digests);
  ASSERT_EQ(full.modules.size(), 2u);
  ASSERT_EQ(restore_chain(standby.chain, full), 2u);

  // Classifiable-only traffic afterwards: the tracker blocker's state is
  // untouched, so the next incremental omits it.
  SimDuration delay = 0;
  Packet video = net.make_packet(
      Ipv4Addr(10, 0, 0, 2), Ipv4Addr(93, 184, 216, 252), IpProto::kTcp,
      to_bytes("HTTP/1.1 200 OK Content-Type: video fresh"));
  (void)primary.chain.process(video, 0, delay);
  const ChainCheckpoint incr = capture_chain(primary.chain, 2, 0, &digests);
  EXPECT_TRUE(incr.incremental);
  ASSERT_EQ(incr.modules.size(), 1u);
  EXPECT_EQ(incr.modules[0].module, "classifier");

  // Applying the incremental on top brings the classifier up to date and
  // leaves the blocker's previously restored state alone.
  ASSERT_EQ(restore_chain(standby.chain, incr), 1u);
  EXPECT_EQ(standby.classifier.serialize_state(),
            primary.classifier.serialize_state());
  EXPECT_EQ(standby.blocker.blocked(), primary.blocker.blocked());

  // Nothing changed since: the next incremental is empty.
  const ChainCheckpoint quiet = capture_chain(primary.chain, 3, 0, &digests);
  EXPECT_TRUE(quiet.modules.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SurvivabilityProperty,
                         ::testing::Values(41, 42, 43, 44));

// --- StandbyAgent: transfer validation --------------------------------------

TEST(Survivability, StandbyAgentAppliesValidAndRejectsCorruptTransfers) {
  TestbedConfig cfg;
  cfg.standby = true;
  Testbed tb(cfg);

  Rng rng(5);
  StatefulChain donor("c1");
  donor.feed(make_traffic(tb.net, rng, 12), 0, 12);

  StatefulChain replica_modules("c1");
  Chain& replica = tb.standby_mbox->create_chain("c1");
  replica.append(&replica_modules.classifier);
  replica.append(&replica_modules.blocker);

  const auto send_xfer = [&](std::uint32_t seq, Bytes ckpt,
                             const std::string& chain_id = "c1",
                             bool ok = true) {
    StateTransfer x;
    x.seq = seq;
    x.device_id = "alice-phone";
    x.chain_id = chain_id;
    x.ok = ok;
    x.checkpoint = std::move(ckpt);
    tb.control->send_udp(tb.addrs.standby, kPvnPort, kPvnStandbyPort,
                         wrap(PvnMsgType::kStateTransfer, x.encode(), {}));
    tb.net.sim().run_until(tb.net.sim().now() + milliseconds(50));
  };

  // 1. A valid transfer applies and reproduces the donor's state.
  send_xfer(1, capture_chain(donor.chain, 1, 0).encode());
  EXPECT_EQ(tb.standby_agent->checkpoints_applied(), 1u);
  EXPECT_EQ(tb.standby_agent->checkpoints_rejected(), 0u);
  EXPECT_EQ(replica_modules.classifier.serialize_state(),
            donor.classifier.serialize_state());

  // 2. A duplicated/reordered datagram (same checkpoint seq) is rejected:
  // the standby never steps backwards.
  send_xfer(2, capture_chain(donor.chain, 1, 0).encode());
  EXPECT_EQ(tb.standby_agent->checkpoints_applied(), 1u);
  EXPECT_EQ(tb.standby_agent->checkpoints_rejected(), 1u);

  // 3. A bit-flipped checkpoint fails the digest and is dropped wholesale.
  Bytes flipped = capture_chain(donor.chain, 2, 0).encode();
  flipped[flipped.size() / 2] ^= 0x40;
  send_xfer(3, std::move(flipped));
  EXPECT_EQ(tb.standby_agent->checkpoints_rejected(), 2u);

  // 4. Truncation in transit likewise.
  Bytes truncated = capture_chain(donor.chain, 3, 0).encode();
  truncated.resize(truncated.size() - 3);
  send_xfer(4, std::move(truncated));
  EXPECT_EQ(tb.standby_agent->checkpoints_rejected(), 3u);

  // 5. A checkpoint for a different chain than the transfer claims.
  send_xfer(5, capture_chain(donor.chain, 4, 0).encode(), "other-chain");
  EXPECT_EQ(tb.standby_agent->checkpoints_rejected(), 4u);

  // 6. ok=false transfers (the source had nothing) are ignored silently.
  send_xfer(6, capture_chain(donor.chain, 5, 0).encode(), "c1", false);
  EXPECT_EQ(tb.standby_agent->checkpoints_applied(), 1u);
  EXPECT_EQ(tb.standby_agent->checkpoints_rejected(), 4u);

  // Through all of it the replica kept the one valid snapshot.
  EXPECT_EQ(replica_modules.classifier.serialize_state(),
            donor.classifier.serialize_state());
  EXPECT_GT(tb.standby_agent->bytes_received(), 0u);
}

// --- Warm standby: promotion on primary crash --------------------------------

Pvnc stateful_pvnc() {
  Pvnc pvnc;
  pvnc.name = "alice-phone";
  pvnc.chain.push_back(PvncModule{"tls-validator", {{"mode", "block"}}});
  pvnc.chain.push_back(PvncModule{"classifier", {}});
  pvnc.chain.push_back(PvncModule{"tracker-blocker", {}});
  return pvnc;
}

TEST(Survivability, PrimaryCrashPromotesStandbyWithoutLosingTheSession) {
  TestbedConfig cfg;
  cfg.standby = true;
  cfg.lease_duration = seconds(2);
  cfg.checkpoint_interval = milliseconds(100);
  Testbed tb(cfg);

  ClientConfig ccfg;
  // tls-validator is required: without the standby this crash would force
  // a failover (resilience_test.cc covers that path).
  ccfg.constraints.required_modules = {"tls-validator"};
  PvnClient agent(*tb.client, stateful_pvnc(), ccfg);
  agent.set_fallback(tb.device_tunnel.get());
  agent.start_session(tb.addrs.control);

  tb.net.sim().run_until(seconds(1));
  ASSERT_EQ(agent.state(), SessionState::kActive);
  EXPECT_EQ(tb.server->standbys_ready(), 1u);

  // Build per-flow classifier state on the primary chain.
  for (int i = 0; i < 6; ++i) {
    tb.client->send_udp(tb.addrs.web, static_cast<Port>(5000 + i), 80,
                        to_bytes("HTTP/1.1 200 OK Content-Type: video #" +
                                 std::to_string(i)));
  }
  tb.net.sim().run_until(seconds(3));
  Classifier* primary_cls = find_classifier(tb.mbox_host->chain(agent.chain_id()));
  ASSERT_NE(primary_cls, nullptr);
  const std::uint64_t flows_before = primary_cls->flows_classified();
  EXPECT_GT(flows_before, 0u);
  // Checkpoints streamed the state to the standby before the crash.
  EXPECT_GT(tb.server->checkpoints_streamed(), 0u);
  EXPECT_GT(tb.standby_agent->checkpoints_applied(), 0u);

  tb.net.sim().schedule_at(seconds(3), [&] { tb.mbox_host->crash(); });
  tb.net.sim().run_until(seconds(4));

  // The standby took over: no failover, no degradation, session untouched.
  EXPECT_EQ(tb.server->standby_promotions(), 1u);
  EXPECT_EQ(tb.controller->promotions(), 1u);
  EXPECT_EQ(agent.state(), SessionState::kActive);
  EXPECT_EQ(agent.failovers(), 0u);
  EXPECT_FALSE(tb.device_tunnel->active());
  EXPECT_EQ(tb.server->deployments_active(), 1u);
  EXPECT_EQ(tb.server->degraded_deployments(), 0u);
  EXPECT_EQ(tb.server->chains_lost(), 0u);

  // The promoted chain carries the streamed per-flow state...
  Chain* promoted = tb.standby_mbox->chain(agent.chain_id());
  ASSERT_NE(promoted, nullptr);
  Classifier* standby_cls = find_classifier(promoted);
  ASSERT_NE(standby_cls, nullptr);
  EXPECT_EQ(standby_cls->flows_classified(), flows_before);

  // ...and processes new traffic diverted by the re-pointed flow rules.
  const std::uint64_t processed_before = promoted->packets();
  tb.client->send_udp(tb.addrs.web, 6000, 80,
                      to_bytes("HTTP/1.1 200 OK Content-Type: video new"));
  tb.net.sim().run_until(seconds(6));
  EXPECT_GT(promoted->packets(), processed_before);

  // Renewals keep succeeding against the promoted deployment.
  const std::uint64_t acked_at_crash = agent.renews_acked();
  tb.net.sim().run_until(seconds(10));
  EXPECT_EQ(agent.state(), SessionState::kActive);
  EXPECT_GT(agent.renews_acked(), acked_at_crash);
}

TEST(Survivability, StandbyCrashLeavesTunnelFailoverAsLastResort) {
  TestbedConfig cfg;
  cfg.standby = true;
  cfg.lease_duration = seconds(2);
  cfg.checkpoint_interval = milliseconds(100);
  Testbed tb(cfg);

  ClientConfig ccfg;
  ccfg.constraints.required_modules = {"tls-validator"};
  ccfg.session.fallback_retry = seconds(1);
  PvnClient agent(*tb.client, stateful_pvnc(), ccfg);
  agent.set_fallback(tb.device_tunnel.get());
  agent.start_session(tb.addrs.control);
  tb.net.sim().run_until(seconds(1));
  ASSERT_EQ(agent.state(), SessionState::kActive);
  ASSERT_EQ(tb.server->standbys_ready(), 1u);

  // The standby dies first; the server notices and drops its spare.
  tb.net.sim().schedule_at(seconds(2), [&] { tb.standby_mbox->crash(); });
  tb.net.sim().run_until(seconds(3));
  EXPECT_EQ(tb.server->standbys_lost(), 1u);

  // Now the primary dies too: with no standby left, the old tunnel
  // failover path is the last resort.
  tb.net.sim().schedule_at(seconds(3), [&] { tb.mbox_host->crash(); });
  tb.net.sim().run_until(seconds(3) + 2 * cfg.lease_duration);
  EXPECT_EQ(tb.server->standby_promotions(), 0u);
  EXPECT_EQ(agent.state(), SessionState::kFallback);
  EXPECT_TRUE(tb.device_tunnel->active());
  EXPECT_EQ(agent.failovers(), 1u);
}

// --- Live migration across access networks -----------------------------------

TEST(Survivability, MigrationHandsOffStateAndTearsDownTheOldSession) {
  RoamingTestbed tb;

  PvnClient agent(*tb.client, tb.roaming_pvnc());
  agent.start_session(tb.addrs.control_a);
  tb.net.sim().run_until(seconds(1));
  ASSERT_EQ(agent.state(), SessionState::kActive);
  ASSERT_EQ(tb.a.server->deployments_active(), 1u);
  const std::string old_chain_id = agent.chain_id();

  // Build per-flow state through network A's chain.
  for (int i = 0; i < 5; ++i) {
    tb.client->send_udp(tb.addrs.web, static_cast<Port>(5000 + i), 80,
                        to_bytes("HTTP/1.1 200 OK Content-Type: video #" +
                                 std::to_string(i)));
  }
  tb.net.sim().run_until(seconds(2));
  Classifier* old_cls = find_classifier(tb.a.mbox->chain(old_chain_id));
  ASSERT_NE(old_cls, nullptr);
  const std::uint64_t flows_before = old_cls->flows_classified();
  ASSERT_GT(flows_before, 0u);

  // The device roams onto network B and migrates its PVN there.
  tb.re_attach();
  DeployOutcome outcome;
  bool done = false;
  agent.migrate(tb.addrs.control_b, milliseconds(300),
                [&](const DeployOutcome& o) {
                  outcome = o;
                  done = true;
                });
  tb.net.sim().run_until(seconds(8));

  ASSERT_TRUE(done);
  ASSERT_TRUE(outcome.ok) << outcome.failure;
  EXPECT_EQ(agent.migrations(), 1u);
  EXPECT_EQ(agent.state(), SessionState::kActive);

  // B pulled the old chain's state from A over the wan...
  EXPECT_EQ(tb.b.server->handoffs_completed(), 1u);
  EXPECT_EQ(tb.a.server->state_requests_served(), 1u);
  Classifier* new_cls = find_classifier(tb.b.mbox->chain(agent.chain_id()));
  ASSERT_NE(new_cls, nullptr);
  EXPECT_EQ(new_cls->flows_classified(), flows_before);

  // ...and after the drain window the old session is gone.
  EXPECT_EQ(tb.a.server->deployments_active(), 0u);
  EXPECT_EQ(tb.a.mbox->chain(old_chain_id), nullptr);
  EXPECT_EQ(tb.b.server->deployments_active(), 1u);

  // The migrated session stays healthy: renewals now flow to B.
  const std::uint64_t acked = agent.renews_acked();
  tb.net.sim().run_until(seconds(25));
  EXPECT_EQ(agent.state(), SessionState::kActive);
  EXPECT_GT(agent.renews_acked(), acked);
  EXPECT_EQ(tb.b.server->deployments_active(), 1u);
}

TEST(Survivability, FailedMigrationLeavesTheOldSessionUntouched) {
  RoamingTestbed tb;
  PvnClient agent(*tb.client, tb.roaming_pvnc());
  agent.start_session(tb.addrs.control_a);
  tb.net.sim().run_until(seconds(1));
  ASSERT_EQ(agent.state(), SessionState::kActive);
  const std::string old_chain_id = agent.chain_id();

  // Network B accepts discovery but drops deploys: the migration times out.
  tb.b.server->drop_deploy_requests(true);
  tb.re_attach();
  DeployOutcome outcome;
  bool done = false;
  agent.migrate(tb.addrs.control_b, milliseconds(300),
                [&](const DeployOutcome& o) {
                  outcome = o;
                  done = true;
                });
  tb.net.sim().run_until(seconds(10));

  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(agent.migrations(), 0u);
  EXPECT_FALSE(agent.migrating());

  // Still on A, same chain, no fallback; renewals keep being answered.
  EXPECT_EQ(agent.state(), SessionState::kActive);
  EXPECT_EQ(agent.chain_id(), old_chain_id);
  EXPECT_EQ(agent.failovers(), 0u);
  EXPECT_EQ(tb.a.server->deployments_active(), 1u);
  EXPECT_EQ(tb.b.server->deployments_active(), 0u);
  const std::uint64_t acked = agent.renews_acked();
  tb.net.sim().run_until(seconds(25));
  EXPECT_EQ(agent.state(), SessionState::kActive);
  EXPECT_GT(agent.renews_acked(), acked);
}

// A migration where the old server cannot serve state (it already crashed)
// still completes the deployment — without restored state, but without
// wedging the client on network B.
TEST(Survivability, MigrationSurvivesAnUnreachableOldServer) {
  RoamingTestbed tb;
  PvnClient agent(*tb.client, tb.roaming_pvnc());
  agent.start_session(tb.addrs.control_a);
  tb.net.sim().run_until(seconds(1));
  ASSERT_EQ(agent.state(), SessionState::kActive);

  // Kill the A-side control host outright: state requests go unanswered and
  // B's handoff must time out rather than block the deployment forever.
  tb.faults->crash_node(*tb.control_a);
  tb.re_attach();
  DeployOutcome outcome;
  bool done = false;
  agent.migrate(tb.addrs.control_b, milliseconds(300),
                [&](const DeployOutcome& o) {
                  outcome = o;
                  done = true;
                });
  tb.net.sim().run_until(seconds(10));

  ASSERT_TRUE(done);
  ASSERT_TRUE(outcome.ok) << outcome.failure;
  EXPECT_EQ(agent.state(), SessionState::kActive);
  EXPECT_EQ(agent.migrations(), 1u);
  EXPECT_EQ(tb.b.server->deployments_active(), 1u);
  EXPECT_EQ(tb.b.server->handoffs_completed(), 0u);
  EXPECT_EQ(tb.b.server->handoff_timeouts(), 1u);
}

// --- An mbox host crash between rule install and ack -------------------------

std::size_t rules_with_cookie(SdnSwitch& sw, const std::string& cookie) {
  std::size_t n = 0;
  for (int t = 0; t < sw.table_count(); ++t) {
    for (const FlowRule& rule : sw.table(t).rules()) {
      if (rule.cookie == cookie) ++n;
    }
  }
  return n;
}

// Advances `sim` in 0.1 ms steps until `host` starts building a chain;
// returns the end of that step.
SimTime run_until_build_starts(Simulator& sim, const MboxHost& host) {
  SimTime t = sim.now();
  while (host.memory_in_use() == 0) sim.run_until(t += microseconds(100));
  return t;
}

// The chain is up, so the switch already diverts to it, but its rules need
// one control RTT (2 ms) before the ack: a crash then fails the deploy.
TEST(Survivability, MboxCrashWhileRulesInstallFailsTheDeploy) {
  Testbed tb;
  PvnClient agent(*tb.client, tb.standard_pvnc("alice-phone"));
  DeployOutcome outcome;
  bool done = false;
  agent.discover_and_deploy(tb.addrs.control, [&](const DeployOutcome& o) {
    outcome = o;
    done = true;
  });
  const SimTime started = run_until_build_starts(tb.net.sim(), *tb.mbox_host);
  tb.net.sim().run_until(started + microseconds(30050));
  ASSERT_EQ(tb.server->deployments_active(), 0u);
  tb.mbox_host->crash();
  tb.net.sim().run_until(tb.net.sim().now() + seconds(1));

  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.nack_code, NackCode::kUnavailable);
  EXPECT_EQ(outcome.failure, "nack: middlebox host unavailable");
  EXPECT_EQ(tb.server->deployments_active(), 0u);
  EXPECT_EQ(tb.server->deployments_total(), 0u);  // no ack went out
  // The crash came after the rules were sent, and they are gone again.
  EXPECT_GT(tb.controller->rules_installed(), 0u);
  EXPECT_EQ(rules_with_cookie(*tb.access_sw, "pvn:alice-phone"), 0u);
  // Device traffic is no longer diverted to the freed chain.
  tb.client->send_udp(tb.addrs.web, 5000, 80, to_bytes("GET / HTTP/1.1"));
  tb.net.sim().run_until(tb.net.sim().now() + milliseconds(100));
  EXPECT_EQ(tb.access_sw->stats().diverted_mbox, 0u);
}

// A migration whose old server is down waits up to 500 ms for the handoff
// with its new chain registered; a crash in that wait fails the deploy.
TEST(Survivability, MboxCrashDuringMigrationHandoffFailsTheDeploy) {
  RoamingTestbed tb;
  PvnClient agent(*tb.client, tb.roaming_pvnc());
  agent.start_session(tb.addrs.control_a);
  tb.net.sim().run_until(seconds(1));
  ASSERT_EQ(agent.state(), SessionState::kActive);

  tb.faults->crash_node(*tb.control_a);
  tb.re_attach();
  DeployOutcome outcome;
  bool done = false;
  agent.migrate(tb.addrs.control_b, milliseconds(300),
                [&](const DeployOutcome& o) {
                  outcome = o;
                  done = true;
                });
  const SimTime crash_at =
      run_until_build_starts(tb.net.sim(), *tb.b.mbox) + milliseconds(130);
  // This packet reaches switch B (8 ms access latency) 1 ms after the
  // crash, before the rule removal lands: it must miss the freed chain.
  tb.net.sim().schedule_at(crash_at - milliseconds(7), [&] {
    tb.client->send_udp(tb.addrs.web, 5000, 80, to_bytes("GET / HTTP/1.1"));
  });
  bool in_window = false;
  tb.net.sim().schedule_at(crash_at, [&] {
    in_window = tb.b.server->deployments_active() == 0 &&
                rules_with_cookie(*tb.sw_b, "pvn:alice-phone") > 0;
    tb.b.mbox->crash();
  });
  tb.net.sim().run_until(crash_at + seconds(2));

  ASSERT_TRUE(in_window);
  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.nack_code, NackCode::kUnavailable);
  EXPECT_EQ(tb.sw_b->stats().diverted_mbox, 0u);
  EXPECT_GT(tb.sw_b->stats().dropped_rule, 0u);  // matched, no processor
  EXPECT_EQ(tb.b.server->deployments_active(), 0u);
  EXPECT_EQ(tb.b.server->deployments_total(), 0u);
  EXPECT_EQ(tb.b.server->handoff_timeouts(), 0u);  // cancelled, never acked
  EXPECT_EQ(rules_with_cookie(*tb.sw_b, "pvn:alice-phone"), 0u);
}

// --- One in-flight entry per device ----------------------------------------

// Speaks the deploy protocol from one client port, so a test can send what
// a PvnClient never would (overlapping requests, a re-send after a
// teardown) and see every reply.
class RawDeployer {
 public:
  RawDeployer(Host& host, Ipv4Addr server) : host_(&host), server_(server) {
    host.bind_udp(kPort, [this](Ipv4Addr, Port, Port, const Bytes& payload) {
      const auto frame = unwrap_frame(payload);
      if (!frame) return;
      if (frame->type == PvnMsgType::kDeployAck) {
        if (const auto ack = DeployAck::decode(frame->body)) acks.push_back(*ack);
      } else if (frame->type == PvnMsgType::kDeployNack) {
        if (const auto n = DeployNack::decode(frame->body)) nacks.push_back(*n);
      }
    });
  }
  ~RawDeployer() { host_->unbind_udp(kPort); }

  void deploy(const DeployRequest& req) {
    host_->send_udp(server_, kPort, kPvnPort,
                    wrap(PvnMsgType::kDeployRequest, req.encode(), {}));
  }
  void teardown(const std::string& device_id) {
    Teardown td;
    td.device_id = device_id;
    host_->send_udp(server_, kPort, kPvnPort,
                    wrap(PvnMsgType::kTeardown, td.encode(), {}));
  }

  std::vector<DeployAck> acks;
  std::vector<DeployNack> nacks;

 private:
  static constexpr Port kPort = 4040;
  Host* host_;
  Ipv4Addr server_;
};

DeployRequest standard_request(const Testbed& tb, std::uint32_t seq) {
  DeployRequest req;
  req.seq = seq;
  req.device_id = "alice-phone";
  req.pvnc = tb.standard_pvnc();
  req.payment = 1e6;
  return req;
}

// A second, different request for the device while the first chain is
// still building supersedes it: one ack, one chain, nothing left after the
// teardown.
TEST(Survivability, OverlappingDeploysAckOnlyTheNewest) {
  Testbed tb;
  RawDeployer raw(*tb.client, tb.addrs.control);
  raw.deploy(standard_request(tb, 1));
  const SimTime first_build =
      run_until_build_starts(tb.net.sim(), *tb.mbox_host);
  tb.net.sim().run_until(first_build + milliseconds(10));
  raw.deploy(standard_request(tb, 2));
  tb.net.sim().run_until(seconds(1));

  ASSERT_EQ(raw.acks.size(), 1u);
  EXPECT_EQ(raw.acks[0].seq, 2u);
  EXPECT_TRUE(raw.nacks.empty());
  EXPECT_EQ(tb.server->deployments_active(), 1u);
  EXPECT_EQ(tb.server->deployments_total(), 1u);
  EXPECT_EQ(tb.server->pending_deploys(), 0u);
  EXPECT_EQ(tb.mbox_host->instances(), 4);

  raw.teardown("alice-phone");
  tb.net.sim().run_until(seconds(2));
  EXPECT_EQ(tb.server->deployments_active(), 0u);
  EXPECT_EQ(tb.mbox_host->instances(), 0);
  EXPECT_EQ(tb.mbox_host->memory_in_use(), 0);
}

// A teardown while a migrating deploy waits for its state handoff abandons
// it: no reply, nothing held, and the same request deploys when re-sent.
TEST(Survivability, TeardownDuringHandoffAbandonsTheDeploy) {
  Testbed tb;
  RawDeployer raw(*tb.client, tb.addrs.control);
  DeployRequest req = standard_request(tb, 1);
  req.handoff_server = Ipv4Addr{192, 0, 2, 1};  // no route: never answers
  req.handoff_chain_id = "chain:alice-phone:old";
  raw.deploy(req);
  tb.net.sim().run_until(milliseconds(200));  // built, rules in, waiting
  ASSERT_EQ(tb.server->pending_deploys(), 1u);
  ASSERT_EQ(tb.mbox_host->instances(), 4);
  ASSERT_GT(rules_with_cookie(*tb.access_sw, "pvn:alice-phone"), 0u);

  raw.teardown("alice-phone");
  tb.net.sim().run_until(seconds(2));
  EXPECT_TRUE(raw.acks.empty());
  EXPECT_TRUE(raw.nacks.empty());
  EXPECT_EQ(tb.server->pending_deploys(), 0u);
  EXPECT_EQ(tb.server->handoff_timeouts(), 0u);
  EXPECT_EQ(tb.mbox_host->instances(), 0);
  EXPECT_EQ(rules_with_cookie(*tb.access_sw, "pvn:alice-phone"), 0u);

  raw.deploy(req);
  tb.net.sim().run_until(seconds(3));
  ASSERT_EQ(raw.acks.size(), 1u);
  EXPECT_EQ(raw.acks[0].seq, 1u);
  EXPECT_FALSE(raw.acks[0].state_restored);
  EXPECT_EQ(tb.server->duplicate_deploys(), 0u);
  EXPECT_EQ(tb.server->handoff_timeouts(), 1u);
  EXPECT_EQ(tb.server->deployments_active(), 1u);
  EXPECT_EQ(tb.mbox_host->instances(), 4);
}

// A crash NACKs the deploys whose rules are still going in by chain id, so
// chain:dev-10:1 before chain:dev-1:0.
TEST(Survivability, MboxCrashNacksHookedDeploysInChainIdOrder) {
  Testbed tb;
  RawDeployer raw(*tb.client, tb.addrs.control);
  for (const std::uint32_t n : {1u, 10u}) {
    DeployRequest req = standard_request(tb, n);
    req.device_id = "dev-" + std::to_string(n);
    raw.deploy(req);
  }
  const SimTime started = run_until_build_starts(tb.net.sim(), *tb.mbox_host);
  tb.net.sim().run_until(started + microseconds(30050));
  ASSERT_EQ(tb.server->pending_deploys(), 2u);
  ASSERT_EQ(tb.server->deployments_active(), 0u);
  tb.mbox_host->crash();
  tb.net.sim().run_until(tb.net.sim().now() + seconds(1));

  EXPECT_TRUE(raw.acks.empty());
  ASSERT_EQ(raw.nacks.size(), 2u);
  EXPECT_EQ(raw.nacks[0].seq, 10u);
  EXPECT_EQ(raw.nacks[1].seq, 1u);
  EXPECT_EQ(raw.nacks[0].code, NackCode::kUnavailable);
  EXPECT_EQ(tb.server->pending_deploys(), 0u);
}

// A crash that interrupts the build NACKs the deploy as unavailable, even
// when the host is back up by the time the build reports.
TEST(Survivability, MboxCrashAndRestartMidBuildNacksUnavailable) {
  Testbed tb;
  PvnClient agent(*tb.client, tb.standard_pvnc("alice-phone"));
  DeployOutcome outcome;
  bool done = false;
  agent.discover_and_deploy(tb.addrs.control, [&](const DeployOutcome& o) {
    outcome = o;
    done = true;
  });
  const SimTime started = run_until_build_starts(tb.net.sim(), *tb.mbox_host);
  tb.net.sim().schedule_at(started + milliseconds(10),
                           [&] { tb.mbox_host->crash(); });
  tb.net.sim().schedule_at(started + milliseconds(15),
                           [&] { tb.mbox_host->restart(); });
  tb.net.sim().run_until(started + seconds(1));

  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.nack_code, NackCode::kUnavailable);
  EXPECT_EQ(outcome.failure, "nack: middlebox host unavailable");
  EXPECT_EQ(outcome.retry_after, 0);
  EXPECT_EQ(tb.server->pending_deploys(), 0u);
  EXPECT_EQ(tb.mbox_host->memory_in_use(), 0);
}

// A standby pool that crashes while the mirror is still building loses the
// spare like a ready one: it is counted and re-mirrored on the next pool,
// and a later primary crash promotes it.
TEST(Survivability, StandbyCrashMidMirrorBuildRemirrors) {
  TestbedConfig cfg;
  cfg.standby = true;
  cfg.extra_standby_pools = 1;
  cfg.lease_duration = seconds(2);
  cfg.checkpoint_interval = milliseconds(100);
  Testbed tb(cfg);
  PvnClient agent(*tb.client, stateful_pvnc());
  agent.set_fallback(tb.device_tunnel.get());
  agent.start_session(tb.addrs.control);
  const SimTime mirror =
      run_until_build_starts(tb.net.sim(), *tb.standby_mbox);
  tb.net.sim().schedule_at(mirror + milliseconds(10),
                           [&] { tb.standby_mbox->crash(); });
  tb.net.sim().schedule_at(mirror + milliseconds(20),
                           [&] { tb.standby_mbox->restart(); });
  tb.net.sim().run_until(seconds(5));

  ASSERT_EQ(agent.state(), SessionState::kActive);
  const auto view = tb.server->deployment_view("alice-phone");
  ASSERT_TRUE(view.found);
  EXPECT_EQ(view.standby_pool, 1);
  EXPECT_TRUE(view.standby_ready);
  EXPECT_EQ(tb.server->standbys_lost(), 1u);
  EXPECT_EQ(tb.standby_mbox->instances(), 0);
  EXPECT_EQ(tb.extra_standby_mboxes[0]->instances(), 3);

  tb.mbox_host->crash();
  tb.net.sim().run_until(seconds(6));
  EXPECT_EQ(tb.server->standby_promotions(), 1u);
  EXPECT_EQ(tb.server->degraded_deployments(), 0u);
  EXPECT_TRUE(tb.server->deployment_view("alice-phone").promoted);
  EXPECT_EQ(agent.state(), SessionState::kActive);
}

}  // namespace
}  // namespace pvn

// Operations plane: the in-sim admin endpoint, per-session introspection,
// reconfiguration verbs (idempotent under retransmission), metrics
// snapshots, and the packet-sampling flight recorder.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "audit/reputation.h"
#include "ops/client.h"
#include "ops/endpoint.h"
#include "ops/flight_recorder.h"
#include "proto/ops.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "testbed/testbed.h"

namespace pvn {
namespace {

// --- fixture: testbed with the ops plane enabled -----------------------------

TestbedConfig ops_config() {
  TestbedConfig cfg;
  cfg.standby = true;
  cfg.enable_ops = true;
  return cfg;
}

// --- snapshots ---------------------------------------------------------------

TEST(Ops, SnapshotRoundTripCarriesRegistryMetrics) {
  Testbed tb(ops_config());
  OpsClient admin(*tb.client, tb.addrs.control);
  telemetry::MetricsRegistry::global().counter("ops_test.pings").inc(7);

  std::optional<OpsSnapshotReply> reply;
  admin.request_snapshot("ops_test.",
                         [&](const OpsSnapshotReply& r) { reply = r; });
  tb.net.sim().run_until(tb.net.sim().now() + milliseconds(200));

  ASSERT_TRUE(reply.has_value());
  EXPECT_GT(reply->barrier_time, 0);
  // The digest carried on the wire matches the samples carried on the wire.
  EXPECT_EQ(reply->digest, ops_snapshot_digest(reply->samples));
  bool found = false;
  for (const OpsMetricSample& s : reply->samples) {
    EXPECT_EQ(s.name.rfind("ops_test.", 0), 0u) << s.name;  // prefix filter
    if (s.name == "ops_test.pings" && s.counter_value >= 7) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(tb.ops->snapshots_served(), 1u);
}

// Snapshot and get-alerts requests are answered when the testbed is driven
// by plain sim().run_until, each 1 ms after it reaches the endpoint.
TEST(Ops, RequestsAreAnsweredUnderPlainRunUntil) {
  Testbed tb(ops_config());
  std::vector<SimTime> arrivals;  // ops requests reaching the endpoint
  for (const auto& link : tb.net.links()) {
    link->add_tap([&tb, &arrivals](const Packet& p, const Node&,
                                   const Node& to) {
      Port sport = 0;
      Port dport = 0;
      if (&to == tb.control &&
          peek_ports(static_cast<std::uint8_t>(p.ip.proto), p.l4, sport,
                     dport) &&
          dport == kOpsPort) {
        arrivals.push_back(to.sim().now());
      }
    });
  }
  OpsClient admin(*tb.client, tb.addrs.control);
  std::optional<OpsSnapshotReply> snap;
  std::optional<OpsAlertsReply> alerts;
  admin.request_snapshot("", [&](const OpsSnapshotReply& r) { snap = r; });
  admin.request_alerts([&](const OpsAlertsReply& r) { alerts = r; });
  tb.net.sim().run_until(tb.net.sim().now() + milliseconds(200));

  ASSERT_EQ(arrivals.size(), 2u);
  ASSERT_TRUE(snap.has_value());
  ASSERT_TRUE(alerts.has_value());
  EXPECT_EQ(snap->barrier_time, arrivals[0] + milliseconds(1));
  EXPECT_EQ(alerts->barrier_time, arrivals[1] + milliseconds(1));
  EXPECT_EQ(tb.ops->snapshots_served(), 1u);
  EXPECT_EQ(tb.ops->alerts_served(), 1u);
}

// --- session introspection ---------------------------------------------------

TEST(Ops, SessionQueryJoinsDeploymentLeaseAndSpans) {
  TestbedConfig cfg = ops_config();
  cfg.lease_duration = seconds(120);
  Testbed tb(cfg);
  ASSERT_TRUE(tb.deploy(tb.standard_pvnc("alice-phone")).ok);
  tb.ops->set_scoreboard(nullptr);  // reputation defaults apply

  OpsClient admin(*tb.client, tb.addrs.control);
  std::optional<OpsSessionInfo> info;
  admin.query_session("alice-phone", 8,
                      [&](const OpsSessionInfo& i) { info = i; });
  tb.net.sim().run_until(tb.net.sim().now() + milliseconds(200));

  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->found);
  EXPECT_EQ(info->device_id, "alice-phone");
  EXPECT_EQ(info->switch_name, Testbed::kSwitchName);
  EXPECT_FALSE(info->chain_id.empty());
  EXPECT_EQ(info->modules.size(), 4u);  // the standard pvnc's chain
  EXPECT_GT(info->lease_expires_at, 0);
  EXPECT_TRUE(info->standby_ready);
  EXPECT_FALSE(info->promoted);
  EXPECT_DOUBLE_EQ(info->reputation, 1.0);  // no scoreboard wired
  EXPECT_FALSE(info->quarantined);
}

TEST(Ops, SessionQueryForUnknownDeviceReportsNotFound) {
  Testbed tb(ops_config());
  OpsClient admin(*tb.client, tb.addrs.control);
  std::optional<OpsSessionInfo> info;
  admin.query_session("nobody", 4, [&](const OpsSessionInfo& i) { info = i; });
  tb.net.sim().run_until(tb.net.sim().now() + milliseconds(200));
  ASSERT_TRUE(info.has_value());
  EXPECT_FALSE(info->found);
}

// --- reconfiguration verbs ---------------------------------------------------

TEST(Ops, InjectRuleInstallsThroughControllerAndAudits) {
  Testbed tb(ops_config());
  OpsClient admin(*tb.client, tb.addrs.control);

  OpsReconfigRequest rq;
  rq.verb = OpsVerb::kInjectRule;
  rq.switch_name = Testbed::kSwitchName;
  rq.table = 0;
  rq.rule.priority = 4242;
  rq.rule.cookie = "ops:test-rule";
  rq.rule.match.dst = Prefix{tb.addrs.tracker, 32};
  const Action drop = ActDrop{};
  rq.rule.actions.push_back(drop);
  std::optional<OpsReconfigReply> rep;
  admin.send_reconfig(rq, [&](const OpsReconfigReply& r) { rep = r; });
  tb.net.sim().run_until(tb.net.sim().now() + milliseconds(300));

  ASSERT_TRUE(rep.has_value());
  EXPECT_TRUE(rep->ok);
  EXPECT_TRUE(rep->applied);
  bool installed = false;
  for (const FlowRule& r : tb.access_sw->table(0).rules()) {
    if (r.cookie == "ops:test-rule") installed = true;
  }
  EXPECT_TRUE(installed);
  ASSERT_EQ(tb.ops->audit_log().size(), 1u);
  EXPECT_EQ(tb.ops->audit_log().front().verb, OpsVerb::kInjectRule);
  EXPECT_TRUE(tb.ops->audit_log().front().applied);
}

TEST(Ops, ReconfigRetransmissionIsIdempotent) {
  Testbed tb(ops_config());
  OpsClient admin(*tb.client, tb.addrs.control);
  int wipes = 0;
  tb.ops->register_cache("dns", [&wipes] {
    ++wipes;
    return std::size_t{5};
  });

  OpsReconfigRequest rq;
  rq.verb = OpsVerb::kWipeCache;
  rq.cache_id = "dns";
  int replies = 0;
  OpsReconfigReply last;
  const std::uint32_t seq = admin.send_reconfig(rq, [&](auto& r) {
    ++replies;
    last = r;
  });
  tb.net.sim().run_until(tb.net.sim().now() + milliseconds(200));
  ASSERT_EQ(replies, 1);
  EXPECT_TRUE(last.ok);
  EXPECT_EQ(last.detail, "5 entries from 1 caches");

  // The admin's reply was lost (as far as it knows): byte-identical resend.
  ASSERT_TRUE(admin.retransmit(seq));
  tb.net.sim().run_until(tb.net.sim().now() + milliseconds(200));
  EXPECT_EQ(replies, 2);           // cached reply re-served...
  EXPECT_EQ(wipes, 1);             // ...but the wipe ran exactly once
  EXPECT_EQ(last.detail, "5 entries from 1 caches");
  EXPECT_EQ(tb.ops->duplicates_suppressed(), 1u);
  EXPECT_EQ(tb.ops->reconfigs_applied(), 1u);
  EXPECT_EQ(tb.ops->audit_log().size(), 1u);  // dupes don't re-audit
}

TEST(Ops, ForcedPromotionFlipsDeploymentToStandby) {
  Testbed tb(ops_config());
  ASSERT_TRUE(tb.deploy(tb.standard_pvnc("alice-phone")).ok);
  ASSERT_FALSE(tb.server->deployment_view("alice-phone").promoted);

  OpsClient admin(*tb.client, tb.addrs.control);
  OpsReconfigRequest rq;
  rq.verb = OpsVerb::kPromoteStandby;
  rq.device_id = "alice-phone";
  std::optional<OpsReconfigReply> rep;
  admin.send_reconfig(rq, [&](const OpsReconfigReply& r) { rep = r; });
  tb.net.sim().run_until(tb.net.sim().now() + milliseconds(300));

  ASSERT_TRUE(rep.has_value());
  EXPECT_TRUE(rep->ok);
  EXPECT_TRUE(rep->applied);
  EXPECT_TRUE(tb.server->deployment_view("alice-phone").promoted);

  // A second (non-retransmitted, fresh-seq) promote is an idempotent no-op.
  rep.reset();
  admin.send_reconfig(rq, [&](const OpsReconfigReply& r) { rep = r; });
  tb.net.sim().run_until(tb.net.sim().now() + milliseconds(300));
  ASSERT_TRUE(rep.has_value());
  EXPECT_TRUE(rep->ok);
  EXPECT_FALSE(rep->applied);
}

TEST(Ops, QuarantineOverrideForcesAndClearsLatch) {
  Testbed tb(ops_config());
  HostScoreboard sb;
  tb.ops->set_scoreboard(&sb);
  OpsClient admin(*tb.client, tb.addrs.control);
  const std::string host = tb.addrs.standby.to_string();

  OpsReconfigRequest rq;
  rq.verb = OpsVerb::kQuarantineOverride;
  rq.target_host = host;
  rq.quarantine = 1;
  std::optional<OpsReconfigReply> rep;
  admin.send_reconfig(rq, [&](const OpsReconfigReply& r) { rep = r; });
  tb.net.sim().run_until(tb.net.sim().now() + milliseconds(200));
  ASSERT_TRUE(rep.has_value());
  EXPECT_TRUE(rep->applied);
  EXPECT_TRUE(sb.quarantined(host, tb.net.sim().now()));

  rq.quarantine = 0;
  rep.reset();
  admin.send_reconfig(rq, [&](const OpsReconfigReply& r) { rep = r; });
  tb.net.sim().run_until(tb.net.sim().now() + milliseconds(200));
  ASSERT_TRUE(rep.has_value());
  EXPECT_TRUE(rep->applied);
  EXPECT_FALSE(sb.quarantined(host, tb.net.sim().now()));
}

TEST(Ops, SamplingRateVerbUpdatesTheFlightRecorder) {
  Testbed tb(ops_config());
  OpsClient admin(*tb.client, tb.addrs.control);
  OpsReconfigRequest rq;
  rq.verb = OpsVerb::kSetSamplingRate;
  rq.sample_interval = 99;
  std::optional<OpsReconfigReply> rep;
  admin.send_reconfig(rq, [&](const OpsReconfigReply& r) { rep = r; });
  tb.net.sim().run_until(tb.net.sim().now() + milliseconds(200));
  ASSERT_TRUE(rep.has_value());
  EXPECT_TRUE(rep->applied);
  EXPECT_EQ(tb.flight_recorder->sample_interval(), 99u);

  // Same value again: round-trips ok but reports nothing changed.
  rep.reset();
  admin.send_reconfig(rq, [&](const OpsReconfigReply& r) { rep = r; });
  tb.net.sim().run_until(tb.net.sim().now() + milliseconds(200));
  ASSERT_TRUE(rep.has_value());
  EXPECT_TRUE(rep->ok);
  EXPECT_FALSE(rep->applied);
}

TEST(Ops, UnwiredVerbsFailCleanly) {
  // An endpoint with no collaborators answers every verb with ok=false
  // instead of crashing or timing out.
  Testbed tb(ops_config());
  tb.ops->set_controller(nullptr);
  tb.ops->set_deployment_server(nullptr);
  tb.ops->set_flight_recorder(nullptr);
  OpsClient admin(*tb.client, tb.addrs.control);
  for (const OpsVerb verb :
       {OpsVerb::kInjectRule, OpsVerb::kPromoteStandby,
        OpsVerb::kQuarantineOverride, OpsVerb::kSetSamplingRate}) {
    OpsReconfigRequest rq;
    rq.verb = verb;
    std::optional<OpsReconfigReply> rep;
    admin.send_reconfig(rq, [&](const OpsReconfigReply& r) { rep = r; });
    tb.net.sim().run_until(tb.net.sim().now() + milliseconds(300));
    ASSERT_TRUE(rep.has_value()) << to_string(verb);
    EXPECT_FALSE(rep->ok) << to_string(verb);
    EXPECT_FALSE(rep->applied) << to_string(verb);
  }
}

// --- flight recorder ---------------------------------------------------------

// Pushes `n` pings from the testbed client to the web server. Each run must
// cover the full client->web path (8ms access + 2ms backhaul + 10ms server
// link): run_until leaves the clock at the last event while later ones are
// pending, so a run shorter than the path latency delivers nothing.
void ping(Testbed& tb, int n) {
  for (int i = 0; i < n; ++i) {
    tb.client->send_udp(tb.addrs.web, 4000, 4001, Bytes(64, 0xAB));
    tb.net.sim().run_until(tb.net.sim().now() + milliseconds(30));
  }
}

TEST(Ops, FlightRecorderSamplesEveryBurstAtIntervalOne) {
  TestbedConfig cfg = ops_config();
  cfg.flight.sample_interval = 1;
  Testbed tb(cfg);
  ping(tb, 5);
  const FlightRecorder::Stats st = tb.flight_recorder->stats();
  EXPECT_GT(st.packets_seen, 0u);
  EXPECT_EQ(st.packets_sampled, st.packets_seen);
  const std::vector<FlightSample> samples = tb.flight_recorder->samples();
  ASSERT_FALSE(samples.empty());
  // Samples are merged in (time, packet id) order and carry hop traces.
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LE(samples[i - 1].at, samples[i].at);
  }
  bool hop_seen = false;
  for (const FlightSample& s : samples) {
    if (s.hop_count > 0) hop_seen = true;
  }
  EXPECT_TRUE(hop_seen);
}

TEST(Ops, FlightRecorderIntervalZeroDisablesSampling) {
  TestbedConfig cfg = ops_config();
  cfg.flight.sample_interval = 0;
  Testbed tb(cfg);
  ping(tb, 5);
  const FlightRecorder::Stats st = tb.flight_recorder->stats();
  EXPECT_GT(st.packets_seen, 0u);
  EXPECT_EQ(st.packets_sampled, 0u);
  EXPECT_TRUE(tb.flight_recorder->samples().empty());
}

// A node that discards whatever it receives.
class NullNode : public Node {
 public:
  NullNode(Network& net, std::string name) : Node(net, std::move(name)) {}
  void handle_packet(Packet, int) override {}
};

TEST(Ops, FlightRecorderSamplesEveryNthPacketPerDirection) {
  Network net;
  auto& a = net.add_node<NullNode>("fr-a");
  auto& b = net.add_node<NullNode>("fr-b");
  net.connect(a, b);
  FlightRecorderConfig cfg;
  cfg.sample_interval = 16;
  cfg.per_flow_cap = 1000;  // admit every sampled packet
  FlightRecorder rec(cfg);
  rec.attach(net);

  std::vector<std::uint64_t> ids;  // ids[i]: the (i+1)-th packet sent a->b
  const auto send = [&](int n) {
    for (int i = 0; i < n; ++i) {
      Packet pkt = net.make_packet(Ipv4Addr(10, 0, 0, 1),
                                   Ipv4Addr(10, 0, 0, 2), IpProto::kUdp,
                                   Bytes(64, 0x5A));
      ids.push_back(pkt.id);
      a.send(0, std::move(pkt));
    }
    net.sim().run();
  };
  const auto sampled = [&] {
    std::vector<std::uint64_t> out;
    for (const FlightSample& s : rec.samples()) out.push_back(s.packet_id);
    return out;
  };

  send(50);
  FlightRecorder::Stats st = rec.stats();
  EXPECT_EQ(st.packets_seen, 50u);
  EXPECT_EQ(st.packets_sampled, 3u);
  EXPECT_EQ(sampled(),
            (std::vector<std::uint64_t>{ids[15], ids[31], ids[47]}));

  // A rate change lands when the running countdown expires: the 64th
  // packet closes the old 16-packet period, then every 4th is sampled.
  rec.set_sample_interval(4);
  send(30);
  st = rec.stats();
  EXPECT_EQ(st.packets_seen, 80u);
  EXPECT_EQ(st.packets_sampled, 8u);
  EXPECT_EQ(sampled(), (std::vector<std::uint64_t>{ids[15], ids[31], ids[47],
                                                   ids[63], ids[67], ids[71],
                                                   ids[75], ids[79]}));
}

TEST(Ops, FlightRecorderRingStaysBounded) {
  TestbedConfig cfg = ops_config();
  cfg.flight.sample_interval = 1;
  cfg.flight.ring_capacity = 8;
  cfg.flight.per_flow_cap = 1000;  // admit everything; the ring must bound
  Testbed tb(cfg);
  ping(tb, 30);
  const FlightRecorder::Stats st = tb.flight_recorder->stats();
  EXPECT_GT(st.packets_admitted, 8u);
  EXPECT_LE(tb.flight_recorder->samples().size(), 8u);
}

TEST(Ops, FlightRecorderReservoirCapsHeavyFlows) {
  TestbedConfig cfg = ops_config();
  cfg.flight.sample_interval = 1;
  cfg.flight.per_flow_cap = 4;
  Testbed tb(cfg);
  ping(tb, 40);  // one heavy flow, sampled at every hop
  const FlightRecorder::Stats st = tb.flight_recorder->stats();
  // Algorithm R: after the cap the flow is admitted with p = cap/seen, so a
  // heavy flow must see rejections rather than flooding the ring.
  EXPECT_GT(st.packets_rejected, 0u);
  EXPECT_GT(st.packets_admitted, 0u);
}

TEST(Ops, TraceDumpRoundTripsChromeJson) {
  TestbedConfig cfg = ops_config();
  cfg.flight.sample_interval = 1;
  Testbed tb(cfg);
  ping(tb, 3);
  OpsClient admin(*tb.client, tb.addrs.control);
  std::optional<OpsTraceDumpReply> dump;
  admin.request_trace([&](const OpsTraceDumpReply& d) { dump = d; });
  tb.net.sim().run_until(tb.net.sim().now() + milliseconds(200));
  ASSERT_TRUE(dump.has_value());
  EXPECT_GT(dump->samples, 0u);
  EXPECT_NE(dump->trace_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(dump->trace_json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(dump->trace_json.find("\"hops\""), std::string::npos);
}

// --- telemetry-visible counters ----------------------------------------------

TEST(Ops, EndpointCountersAreRegisteredWithHelp) {
  Testbed tb(ops_config());
  const telemetry::MetricsSnapshot snap =
      telemetry::MetricsRegistry::global().snapshot();
  EXPECT_NE(snap.find("ops.endpoint.requests"), nullptr);
  EXPECT_NE(snap.help.find("ops.endpoint.requests"), snap.help.end());
}

}  // namespace
}  // namespace pvn

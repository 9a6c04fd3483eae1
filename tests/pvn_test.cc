// PVN core tests: PVNC model/codec, the text-format parser, the compiler,
// negotiation, billing, and full end-to-end deployment through the
// discovery protocol on the canonical testbed.
#include <gtest/gtest.h>

#include "pvn/pvnc_parser.h"
#include "testbed/testbed.h"

namespace pvn {
namespace {

// --- PVNC model / codec ---------------------------------------------------------

Pvnc sample_pvnc() {
  Pvnc pvnc;
  pvnc.name = "alice-phone";
  pvnc.chain.push_back(PvncModule{"tls-validator", {{"mode", "block"}}});
  pvnc.chain.push_back(PvncModule{"pii-detector", {{"action", "scrub"}}});
  PvncPolicy drop;
  drop.kind = PvncPolicy::Kind::kDrop;
  drop.match.proto = IpProto::kUdp;
  drop.match.dst_port = 1900;
  pvnc.policies.push_back(drop);
  PvncPolicy rate;
  rate.kind = PvncPolicy::Kind::kRateLimit;
  rate.match.tos = 0x20;
  rate.tos = 0x20;
  rate.rate = Rate::kbps(1500);
  pvnc.policies.push_back(rate);
  return pvnc;
}

TEST(Pvnc, EncodeDecodeRoundTrip) {
  const Pvnc pvnc = sample_pvnc();
  const auto back = Pvnc::decode(pvnc.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, pvnc);
}

TEST(Pvnc, DecodeRejectsGarbage) {
  EXPECT_FALSE(Pvnc::decode(to_bytes("not a pvnc")).has_value());
}

TEST(Pvnc, ResourceEstimateScalesWithChain) {
  Pvnc pvnc = sample_pvnc();
  const auto two = pvnc.est_memory_bytes();
  pvnc.chain.push_back(PvncModule{"classifier", {}});
  EXPECT_GT(pvnc.est_memory_bytes(), two);
}

TEST(Pvnc, RestrictToModulesKeepsOrderAndPolicies) {
  const Pvnc pvnc = sample_pvnc();
  const Pvnc subset = restrict_to_modules(pvnc, {"pii-detector"});
  ASSERT_EQ(subset.chain.size(), 1u);
  EXPECT_EQ(subset.chain[0].store_name, "pii-detector");
  EXPECT_EQ(subset.policies.size(), pvnc.policies.size());
}

TEST(PvncValidation, CatchesProblems) {
  StoreEnvironment env;
  const PvnStore store = make_standard_store(env);

  Pvnc unknown;
  unknown.name = "x";
  unknown.chain.push_back(PvncModule{"warp-drive", {}});
  EXPECT_FALSE(validate_pvnc(unknown, &store).empty());

  Pvnc dup;
  dup.name = "x";
  dup.chain.push_back(PvncModule{"classifier", {}});
  dup.chain.push_back(PvncModule{"classifier", {}});
  EXPECT_FALSE(validate_pvnc(dup, &store).empty());

  Pvnc unnamed;
  EXPECT_FALSE(validate_pvnc(unnamed, &store).empty());

  Pvnc conflicting;
  conflicting.name = "x";
  PvncPolicy a, b;
  a.kind = PvncPolicy::Kind::kDrop;
  b.kind = PvncPolicy::Kind::kMark;
  conflicting.policies = {a, b};
  EXPECT_FALSE(validate_pvnc(conflicting, &store).empty());

  Pvnc good;
  good.name = "x";
  good.chain.push_back(PvncModule{"classifier", {}});
  EXPECT_TRUE(validate_pvnc(good, &store).empty());
}

// --- Parser ------------------------------------------------------------------------

TEST(PvncParser, ParsesFullExample) {
  const std::string text = R"(
# Alice's roaming configuration
pvnc "alice-phone" {
  module tls-validator mode=block
  module pii-detector action=scrub
  policy drop proto=udp dport=1900
  policy rate tos=0x20 rate=1500kbps
  policy mark dport=80 tos=16
  policy tunnel dport=443 gateway=203.0.113.5
}
)";
  const auto result = parse_pvnc(text);
  ASSERT_TRUE(std::holds_alternative<Pvnc>(result));
  const Pvnc& pvnc = std::get<Pvnc>(result);
  EXPECT_EQ(pvnc.name, "alice-phone");
  ASSERT_EQ(pvnc.chain.size(), 2u);
  EXPECT_EQ(pvnc.chain[0].store_name, "tls-validator");
  EXPECT_EQ(pvnc.chain[0].params.at("mode"), "block");
  ASSERT_EQ(pvnc.policies.size(), 4u);
  EXPECT_EQ(pvnc.policies[0].kind, PvncPolicy::Kind::kDrop);
  EXPECT_EQ(pvnc.policies[0].match.dst_port, 1900);
  EXPECT_EQ(pvnc.policies[1].kind, PvncPolicy::Kind::kRateLimit);
  EXPECT_EQ(pvnc.policies[1].rate, Rate::kbps(1500));
  EXPECT_EQ(pvnc.policies[1].match.tos, 0x20);
  EXPECT_EQ(pvnc.policies[2].kind, PvncPolicy::Kind::kMark);
  EXPECT_EQ(pvnc.policies[2].tos, 16);
  EXPECT_EQ(pvnc.policies[3].kind, PvncPolicy::Kind::kTunnel);
  EXPECT_EQ(pvnc.policies[3].gateway, Ipv4Addr(203, 0, 113, 5));
}

struct BadPvncCase {
  const char* label;
  const char* text;
};

// Without this gtest prints the two pointers' bytes, which change from run to
// run, into every test name.
void PrintTo(const BadPvncCase& c, std::ostream* os) { *os << c.label; }

class PvncParserErrors : public ::testing::TestWithParam<BadPvncCase> {};

TEST_P(PvncParserErrors, ReportsLineAndMessage) {
  const auto result = parse_pvnc(GetParam().text);
  ASSERT_TRUE(std::holds_alternative<ParseError>(result)) << GetParam().label;
  EXPECT_GT(std::get<ParseError>(result).line, 0);
  EXPECT_FALSE(std::get<ParseError>(result).message.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PvncParserErrors,
    ::testing::Values(
        BadPvncCase{"empty", ""},
        BadPvncCase{"no-brace", "pvnc \"x\"\n}"},
        BadPvncCase{"unterminated", "pvnc \"x\" {\n module classifier\n"},
        BadPvncCase{"unknown-directive", "pvnc \"x\" {\n frobnicate\n}"},
        BadPvncCase{"bad-policy-kind", "pvnc \"x\" {\n policy explode\n}"},
        BadPvncCase{"bad-cidr", "pvnc \"x\" {\n policy drop dst=999.1.2.3\n}"},
        BadPvncCase{"bad-port", "pvnc \"x\" {\n policy drop dport=99999\n}"},
        BadPvncCase{"rate-missing", "pvnc \"x\" {\n policy rate tos=1\n}"},
        BadPvncCase{"tunnel-missing-gw", "pvnc \"x\" {\n policy tunnel\n}"},
        BadPvncCase{"module-bad-param",
                    "pvnc \"x\" {\n module classifier modeblock\n}"}),
    [](const ::testing::TestParamInfo<BadPvncCase>& info) {
      std::string name = info.param.label;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(PvncParser, FormatRoundTrips) {
  const Pvnc pvnc = sample_pvnc();
  const std::string text = format_pvnc(pvnc);
  const auto result = parse_pvnc(text);
  ASSERT_TRUE(std::holds_alternative<Pvnc>(result)) << text;
  EXPECT_EQ(std::get<Pvnc>(result), pvnc) << text;
}

// A PVNC's lists travel with u16 counts, and the text is where their
// lengths come from: the parser refuses what the encoder could not carry.
TEST(PvncParser, RejectsMoreModulesThanTheWireCountHolds) {
  const auto with_modules = [](int n) {
    std::string text = "pvnc \"big\" {\n";
    for (int i = 0; i < n; ++i) text += " module m" + std::to_string(i) + "\n";
    return text + "}\n";
  };
  const auto fits = parse_pvnc(with_modules(65'535));
  ASSERT_TRUE(std::holds_alternative<Pvnc>(fits));
  EXPECT_EQ(std::get<Pvnc>(fits).chain.size(), 65'535u);

  const auto result = parse_pvnc(with_modules(65'536));
  ASSERT_TRUE(std::holds_alternative<ParseError>(result));
  EXPECT_EQ(std::get<ParseError>(result).line, 65'537);
  EXPECT_NE(std::get<ParseError>(result).message.find("65535 modules"),
            std::string::npos);
}

// --- Compiler -----------------------------------------------------------------------

TEST(Compiler, EmitsScopedTwoTableProgram) {
  const Pvnc pvnc = sample_pvnc();
  DeploymentContext ctx;
  ctx.device = Ipv4Addr(10, 0, 0, 2);
  ctx.client_port = 0;
  ctx.wan_port = 1;
  ctx.chain_id = "chain:alice:0";
  ctx.cookie = "pvn:alice-phone";
  const CompiledPvnc compiled = compile_pvnc(pvnc, ctx);

  // Table 0: 2 scope/divert rules. Table 1: 2 policies x 2 directions +
  // 2 fall-through forwarding rules.
  int t0 = 0, t1 = 0;
  for (const auto& [table, rule] : compiled.rules) {
    EXPECT_EQ(rule.cookie, "pvn:alice-phone");
    // Every rule is scoped to the device in one direction.
    const bool scoped_src =
        rule.match.src && rule.match.src->contains(ctx.device) &&
        rule.match.src->len == 32;
    const bool scoped_dst =
        rule.match.dst && rule.match.dst->contains(ctx.device) &&
        rule.match.dst->len == 32;
    EXPECT_TRUE(scoped_src || scoped_dst);
    (table == 0 ? t0 : t1) += 1;
  }
  EXPECT_EQ(t0, 2);
  EXPECT_EQ(t1, 6);
  ASSERT_EQ(compiled.meters.size(), 1u);
  EXPECT_EQ(compiled.meters[0].rate, Rate::kbps(1500));
  EXPECT_EQ(compiled.chain.size(), pvnc.chain.size());
}

TEST(Compiler, EmptyChainSkipsMboxAction) {
  Pvnc pvnc;
  pvnc.name = "bare";
  DeploymentContext ctx;
  ctx.device = Ipv4Addr(10, 0, 0, 2);
  ctx.chain_id = "c";
  ctx.cookie = "pvn:bare";
  const CompiledPvnc compiled = compile_pvnc(pvnc, ctx);
  for (const auto& [table, rule] : compiled.rules) {
    for (const Action& a : rule.actions) {
      EXPECT_EQ(std::get_if<ActMbox>(&a), nullptr);
    }
  }
}

// --- Negotiation --------------------------------------------------------------------

Offer make_offer(std::vector<std::string> modules, double price,
                 SimTime expires = 0) {
  Offer o;
  o.offered_modules = std::move(modules);
  o.total_price = price;
  o.expires_at = expires;
  return o;
}

TEST(Negotiation, FullOfferAccepted) {
  const Constraints c;
  const auto r = evaluate_offer(make_offer({"a", "b"}, 1.0), {"a", "b"}, c, 0);
  EXPECT_EQ(r.action, NegotiationAction::kAccept);
  EXPECT_DOUBLE_EQ(r.utility, 2.0);
}

TEST(Negotiation, PartialOfferCountersWithSubset) {
  const Constraints c;
  const auto r = evaluate_offer(make_offer({"a"}, 0.5), {"a", "b"}, c, 0);
  EXPECT_EQ(r.action, NegotiationAction::kCounterSubset);
  EXPECT_EQ(r.accept_modules, std::vector<std::string>{"a"});
}

TEST(Negotiation, HardConstraintRejects) {
  Constraints c;
  c.required_modules = {"b"};
  const auto r = evaluate_offer(make_offer({"a"}, 0.5), {"a", "b"}, c, 0);
  EXPECT_EQ(r.action, NegotiationAction::kReject);
}

TEST(Negotiation, BudgetRejects) {
  Constraints c;
  c.max_price = 1.0;
  const auto r = evaluate_offer(make_offer({"a"}, 2.0), {"a"}, c, 0);
  EXPECT_EQ(r.action, NegotiationAction::kReject);
}

TEST(Negotiation, ExpiredOfferRejected) {
  const Constraints c;
  const auto r = evaluate_offer(make_offer({"a"}, 0.1, seconds(1)), {"a"}, c,
                                seconds(2));
  EXPECT_EQ(r.action, NegotiationAction::kReject);
}

TEST(Negotiation, ExpiredOfferSkippedByPickBestOffer) {
  const Constraints c;
  // The expired offer is better on every axis; it must still lose.
  std::vector<Offer> offers = {make_offer({"a", "b"}, 0.1, seconds(1)),
                               make_offer({"a"}, 5.0, seconds(60))};
  EXPECT_EQ(pick_best_offer(offers, {"a", "b"}, c, seconds(2)), 1);
}

TEST(Negotiation, AllOffersExpiredPicksNone) {
  const Constraints c;
  std::vector<Offer> offers = {make_offer({"a"}, 0.1, seconds(1)),
                               make_offer({"a"}, 0.2, seconds(3))};
  EXPECT_EQ(pick_best_offer(offers, {"a"}, c, seconds(4)), -1);
}

TEST(Negotiation, OfferWithNoExpiryNeverExpires) {
  const Constraints c;
  std::vector<Offer> offers = {make_offer({"a"}, 0.5, 0)};
  EXPECT_EQ(pick_best_offer(offers, {"a"}, c, seconds(1000000)), 0);
}

TEST(Negotiation, SoftUtilityRanksOffers) {
  Constraints c;
  c.module_utility = {{"a", 5.0}, {"b", 1.0}};
  std::vector<Offer> offers = {make_offer({"b"}, 0.1),
                               make_offer({"a"}, 0.9)};
  EXPECT_EQ(pick_best_offer(offers, {"a", "b"}, c, 0), 1);
}

TEST(Negotiation, TieBrokenByPrice) {
  const Constraints c;
  std::vector<Offer> offers = {make_offer({"a"}, 0.9), make_offer({"a"}, 0.2)};
  EXPECT_EQ(pick_best_offer(offers, {"a"}, c, 0), 1);
}

TEST(Negotiation, NoAcceptableOffer) {
  Constraints c;
  c.max_price = 0.01;
  std::vector<Offer> offers = {make_offer({"a"}, 1.0)};
  EXPECT_EQ(pick_best_offer(offers, {"a"}, c, 0), -1);
}

// Property: a larger budget never yields a worse (lower-utility) choice.
class BudgetMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(BudgetMonotonicity, MoreBudgetNeverWorse) {
  std::vector<Offer> offers = {make_offer({"a"}, 0.5),
                               make_offer({"a", "b"}, 2.0),
                               make_offer({"a", "b", "c"}, 5.0)};
  Constraints small;
  small.max_price = GetParam();
  Constraints big;
  big.max_price = GetParam() * 2;
  const std::vector<std::string> req = {"a", "b", "c"};
  const int pick_small = pick_best_offer(offers, req, small, 0);
  const int pick_big = pick_best_offer(offers, req, big, 0);
  auto utility = [&](int idx) {
    if (idx < 0) return -1.0;
    return evaluate_offer(offers[static_cast<std::size_t>(idx)], req,
                          Constraints{}, 0)
        .utility;
  };
  EXPECT_GE(utility(pick_big), utility(pick_small));
}

INSTANTIATE_TEST_SUITE_P(Budgets, BudgetMonotonicity,
                         ::testing::Values(0.1, 0.6, 1.0, 2.5, 6.0));

// --- Ledger -------------------------------------------------------------------------

TEST(Ledger, BalancesAndRefunds) {
  Ledger ledger;
  ledger.charge(0, "alice", "isp", 2.0, "deployment");
  ledger.charge(0, "bob", "isp", 3.0, "deployment");
  EXPECT_DOUBLE_EQ(ledger.balance("isp"), 5.0);
  EXPECT_DOUBLE_EQ(ledger.balance("alice"), -2.0);

  const std::size_t d =
      ledger.file_dispute(seconds(1), "alice", "isp", 2.0, "shaping detected");
  EXPECT_TRUE(ledger.grant_refund(d));
  EXPECT_FALSE(ledger.grant_refund(d));  // no double refunds
  EXPECT_DOUBLE_EQ(ledger.balance("alice"), 0.0);
  EXPECT_DOUBLE_EQ(ledger.balance("isp"), 3.0);
  EXPECT_FALSE(ledger.grant_refund(99));
}

// --- End-to-end deployment on the testbed ----------------------------------------

TEST(Deployment, FullProtocolSucceeds) {
  Testbed tb;
  const DeployOutcome outcome = tb.deploy(tb.standard_pvnc());
  ASSERT_TRUE(outcome.ok) << outcome.failure;
  EXPECT_FALSE(outcome.chain_id.empty());
  EXPECT_EQ(outcome.offers_received, 1);
  EXPECT_GT(outcome.paid, 0.0);
  EXPECT_EQ(outcome.deployed_modules.size(), 4u);
  EXPECT_EQ(tb.server->deployments_active(), 1u);
  // Rules landed on the switch (infra rules + pvn rules).
  EXPECT_GT(tb.access_sw->table(0).size(), 3u);
  EXPECT_GT(tb.access_sw->table(1).size(), 0u);
  // The ledger recorded the charge.
  EXPECT_GT(tb.ledger->balance("access-net"), 0.0);
  // Deployment includes instantiation (4 x sequential-ish 30 ms) and the
  // discovery wait; it completes in well under a second.
  EXPECT_LT(outcome.elapsed, seconds(1));
  EXPECT_GT(outcome.elapsed, milliseconds(30));
}

TEST(Deployment, TrafficFlowsThroughDeployedPvn) {
  Testbed tb;
  ASSERT_TRUE(tb.deploy(tb.standard_pvnc()).ok);
  // Plain web fetch still works through the PVN.
  HttpClient http(*tb.client);
  bool ok = false;
  http.fetch(tb.addrs.web, 80, "/bytes/50000",
             [&](const HttpResponse&, const FetchTiming& t) { ok = t.ok; });
  tb.net.sim().run();
  EXPECT_TRUE(ok);
  // The chain saw the packets.
  Chain* chain = tb.mbox_host->chain("chain:alice-phone:0");
  ASSERT_NE(chain, nullptr);
  EXPECT_GT(chain->packets(), 0u);
}

TEST(Deployment, PiiBlockedEndToEndAfterDeployment) {
  Testbed tb;
  // Without the PVN, the tracker receives the leaky beacon.
  TelemetryEmitter leaky_before(*tb.client, tb.addrs.tracker, 80,
                                {"imei=356938035643809", "lat=42.3601"});
  leaky_before.start(1, milliseconds(10));
  tb.net.sim().run();
  EXPECT_EQ(tb.tracker_http->requests_served(), 1u);

  ASSERT_TRUE(tb.deploy(tb.standard_pvnc()).ok);
  // With the PVN, tracker traffic is dropped (tracker-blocker) before the
  // PII even matters.
  TelemetryEmitter leaky_after(*tb.client, tb.addrs.tracker, 80,
                               {"imei=356938035643809"});
  leaky_after.start(1, milliseconds(10));
  tb.net.sim().run_until(tb.net.sim().now() + seconds(30));
  EXPECT_EQ(tb.tracker_http->requests_served(), 1u);  // unchanged

  Chain* chain = tb.mbox_host->chain("chain:alice-phone:0");
  ASSERT_NE(chain, nullptr);
  bool tracker_finding = false;
  for (const MboxFinding& f : chain->findings()) {
    if (f.kind == "tracker-blocked") tracker_finding = true;
  }
  EXPECT_TRUE(tracker_finding);
}

TEST(Deployment, PartialProviderTriggersSubsetDeployment) {
  TestbedConfig cfg;
  cfg.allowed_modules = {"pii-detector", "tracker-blocker"};  // no validators
  Testbed tb(cfg);
  const DeployOutcome outcome = tb.deploy(tb.standard_pvnc());
  ASSERT_TRUE(outcome.ok) << outcome.failure;
  EXPECT_EQ(outcome.deployed_modules.size(), 2u);
  EXPECT_LT(outcome.utility, 4.0);
}

TEST(Deployment, HardConstraintFailsOnPartialProvider) {
  TestbedConfig cfg;
  cfg.allowed_modules = {"pii-detector"};
  Testbed tb(cfg);
  ClientConfig ccfg;
  ccfg.constraints.required_modules = {"tls-validator"};
  const DeployOutcome outcome = tb.deploy(tb.standard_pvnc(), ccfg);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.failure, "no acceptable offer");
}

TEST(Deployment, OverpricedProviderRejectedByBudget) {
  TestbedConfig cfg;
  cfg.price_multiplier = 100.0;
  Testbed tb(cfg);
  ClientConfig ccfg;
  ccfg.constraints.max_price = 5.0;
  const DeployOutcome outcome = tb.deploy(tb.standard_pvnc(), ccfg);
  EXPECT_FALSE(outcome.ok);
}

TEST(Deployment, TeardownRemovesRulesAndChain) {
  Testbed tb;
  ASSERT_TRUE(tb.deploy(tb.standard_pvnc()).ok);
  const std::size_t rules_with_pvn = tb.access_sw->table(0).size();

  PvnClient agent(*tb.client, tb.standard_pvnc());
  agent.teardown(tb.addrs.control);
  tb.net.sim().run();
  EXPECT_EQ(tb.server->deployments_active(), 0u);
  EXPECT_LT(tb.access_sw->table(0).size(), rules_with_pvn);
  // Only the testbed's infrastructure rules survive.
  for (const FlowRule& rule : tb.access_sw->table(0).rules()) {
    EXPECT_EQ(rule.cookie, "infra");
  }
  EXPECT_EQ(tb.mbox_host->memory_in_use(), 0);
}

TEST(Deployment, RedeploymentReplacesOldOne) {
  Testbed tb;
  ASSERT_TRUE(tb.deploy(tb.standard_pvnc()).ok);
  Pvnc smaller;
  smaller.name = "alice-phone";
  smaller.chain.push_back(PvncModule{"pii-detector", {}});
  ASSERT_TRUE(tb.deploy(smaller).ok);
  EXPECT_EQ(tb.server->deployments_active(), 1u);
  EXPECT_EQ(tb.mbox_host->instances(), 1);
}

TEST(Deployment, DhcpAdvertisesPvnAndDeviceUsesIt) {
  Testbed tb;
  DhcpClient dhcp_client(*tb.client);
  DhcpLease lease;
  dhcp_client.acquire(tb.addrs.control,
                      [&](const DhcpLease& l) { lease = l; });
  tb.net.sim().run();
  ASSERT_TRUE(lease.ok);
  ASSERT_TRUE(lease.pvn_supported);
  EXPECT_EQ(lease.pvn_server, tb.addrs.control);

  // Deploy against the discovered server. The client was re-addressed by
  // DHCP, so deployment rules scope to the new address.
  const DeployOutcome outcome = tb.deploy(tb.standard_pvnc());
  EXPECT_TRUE(outcome.ok) << outcome.failure;
}

TEST(Deployment, UnknownModuleGetsNoOffer) {
  Testbed tb;
  Pvnc pvnc;
  pvnc.name = "alice-phone";
  pvnc.chain.push_back(PvncModule{"quantum-encryptor", {}});
  const DeployOutcome outcome = tb.deploy(pvnc);
  EXPECT_FALSE(outcome.ok);
}

TEST(Deployment, RatePolicyInstallsMeterAndShapesFlow) {
  Testbed tb;
  Pvnc pvnc;
  pvnc.name = "alice-phone";
  PvncPolicy rate;
  rate.kind = PvncPolicy::Kind::kRateLimit;
  rate.match.proto = IpProto::kUdp;
  rate.match.dst_port = 9000;
  rate.rate = Rate::kbps(500);
  pvnc.policies.push_back(rate);
  ASSERT_TRUE(tb.deploy(pvnc).ok);

  // Blast 5 Mbps of UDP at the rate-limited port; goodput collapses to the
  // configured 500 kbps.
  int received = 0;
  tb.web->bind_udp(9000, [&](Ipv4Addr, Port, Port, const Bytes&) {
    ++received;
  });
  const int total = 500;
  for (int i = 0; i < total; ++i) {
    tb.net.sim().schedule_after(i * (seconds(1) / total), [&tb] {
      tb.client->send_udp(tb.addrs.web, 40000, 9000, Bytes(1200, 1));
    });
  }
  tb.net.sim().run_until(tb.net.sim().now() + seconds(5));
  // 500 kbps of ~1240B packets for 1 s ≈ 50 packets (plus burst allowance).
  EXPECT_LT(received, 130);
  EXPECT_GT(received, 20);
}

}  // namespace
}  // namespace pvn

// Chaos campaigns: seed-deterministic planning, schedule codec + repro
// files, the invariant auditor (every planted violation class must be
// caught), delta-debugging shrinking, and bit-identical replay.
#include <gtest/gtest.h>

#include <cstdio>

#include "chaos/campaign.h"
#include "chaos/planner.h"
#include "chaos/runner.h"
#include "chaos/schedule.h"
#include "chaos/shrinker.h"
#include "telemetry/metrics.h"

namespace pvn {
namespace {

// A small, fast scenario shared by the run-level tests: 4 clients, a short
// lease, standbys and a rogue in the auction.
ChaosScenario quick_scenario() {
  ChaosScenario sc;
  sc.clients = 4;
  sc.lease = seconds(10);
  sc.standbys = true;
  sc.rogue = true;
  sc.fault_window = seconds(20);
  sc.settle = seconds(25);
  return sc;
}

ChaosPlannerConfig quick_planner() {
  ChaosPlannerConfig cfg;
  cfg.scenario = quick_scenario();
  cfg.min_events = 4;
  cfg.max_events = 8;
  return cfg;
}

// A benign base schedule plus one planted bug at `at`.
ChaosSchedule planted_schedule(PlantedBug bug, SimTime at,
                               int benign_events = 4) {
  ChaosPlannerConfig cfg = quick_planner();
  cfg.min_events = benign_events;
  cfg.max_events = benign_events;
  ChaosSchedule schedule = ChaosPlanner::plan(99, cfg);
  ChaosEvent plant;
  plant.at = at;
  plant.kind = ChaosEventKind::kPlantedBug;
  plant.arg = static_cast<std::uint32_t>(bug);
  schedule.events.push_back(plant);
  return schedule;
}

// --- planner ---------------------------------------------------------------

TEST(ChaosPlanner, SameSeedSamePlanDifferentSeedDifferentPlan) {
  const ChaosSchedule a1 = ChaosPlanner::plan(7, quick_planner());
  const ChaosSchedule a2 = ChaosPlanner::plan(7, quick_planner());
  const ChaosSchedule b = ChaosPlanner::plan(8, quick_planner());
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_GE(a1.events.size(), 4u);
}

TEST(ChaosPlanner, EventsAreSortedBoundedAndResolveBeforeTheHorizon) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const ChaosSchedule s = ChaosPlanner::plan(seed, quick_planner());
    SimTime last = 0;
    for (const ChaosEvent& e : s.events) {
      EXPECT_GE(e.at, last);
      last = e.at;
      EXPECT_LE(e.at, s.scenario.fault_window);
      EXPECT_LE(e.at + e.duration, s.horizon());
      EXPECT_NE(e.kind, ChaosEventKind::kPlantedBug);  // never drawn
      if (e.kind == ChaosEventKind::kLossBurst) {
        EXPECT_GE(e.loss, 0.05);
        EXPECT_LE(e.loss, 0.9);
      }
    }
  }
}

// --- codec / repro files ---------------------------------------------------

TEST(ChaosSchedule, EncodeDecodeRoundTrips) {
  const ChaosSchedule s = ChaosPlanner::plan(42, quick_planner());
  const auto decoded = ChaosSchedule::decode(s.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, s);
}

TEST(ChaosSchedule, DecodeRejectsBadKindLossAndVersion) {
  ChaosSchedule s = ChaosPlanner::plan(42, quick_planner());
  {
    ChaosSchedule bad = s;
    bad.version = 999;
    EXPECT_FALSE(ChaosSchedule::decode(bad.encode()).has_value());
  }
  {
    ChaosSchedule bad = s;
    bad.events[0].loss = 1.5;  // out of range
    EXPECT_FALSE(ChaosSchedule::decode(bad.encode()).has_value());
  }
  {
    ChaosSchedule bad = s;
    bad.events[0].at = bad.scenario.fault_window + seconds(1);  // outside
    EXPECT_FALSE(ChaosSchedule::decode(bad.encode()).has_value());
  }
}

TEST(ChaosSchedule, ReproFileRoundTripsAndRejectsForeignFiles) {
  const ChaosSchedule s = ChaosPlanner::plan(11, quick_planner());
  const std::string path = ::testing::TempDir() + "chaos_repro_test.bin";
  ASSERT_TRUE(save_repro(s, path));
  const auto loaded = load_repro(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, s);

  // A file without the magic header is rejected, not misparsed.
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a chaos repro", f);
  std::fclose(f);
  EXPECT_FALSE(load_repro(path).has_value());
  std::remove(path.c_str());
}

// --- clean campaign runs ---------------------------------------------------

TEST(ChaosRun, HonestScheduleRunsCleanAndReconverges) {
  const ChaosSchedule s = ChaosPlanner::plan(1, quick_planner());
  const ChaosRunResult run = run_schedule(s);
  for (const InvariantViolation& v : run.violations) {
    ADD_FAILURE() << v.invariant << " at " << v.at << ": " << v.detail;
  }
  EXPECT_EQ(run.active_at_end, 4);
  EXPECT_GT(run.fault_events, 0u);
}

TEST(ChaosRun, SameScheduleSameDigestTwice) {
  const ChaosSchedule s = ChaosPlanner::plan(3, quick_planner());
  const ChaosRunResult r1 = run_schedule(s);
  const ChaosRunResult r2 = run_schedule(s);
  EXPECT_EQ(r1.digest, r2.digest);
  EXPECT_EQ(r1.violations.size(), r2.violations.size());
  EXPECT_EQ(r1.active_at_end, r2.active_at_end);
}

// --- planted violations: detect, shrink, replay ----------------------------

struct PlantedCase {
  PlantedBug bug;
  const char* expected_invariant;
};

// Without this gtest prints the struct's bytes, padding and string pointer
// included, into every test name, so the names changed from run to run.
void PrintTo(const PlantedCase& c, std::ostream* os) {
  *os << c.expected_invariant;
}

class PlantedBugDetection : public ::testing::TestWithParam<PlantedCase> {};

TEST_P(PlantedBugDetection, IsDetectedShrunkAndReplaysMinimal) {
  const PlantedCase& pc = GetParam();
  const ChaosSchedule schedule = planted_schedule(pc.bug, seconds(5));

  // Detect.
  const ChaosRunResult run = run_schedule(schedule);
  bool found = false;
  for (const InvariantViolation& v : run.violations) {
    if (v.invariant == pc.expected_invariant) found = true;
  }
  ASSERT_TRUE(found) << "planted " << to_string(pc.bug) << " not flagged as "
                     << pc.expected_invariant << " (violations: "
                     << run.violations.size() << ")";

  // Shrink: the planted event alone reproduces, so ddmin must land at a
  // handful of events (the bug plus at most its enabling context).
  ShrinkConfig scfg;
  const ShrinkResult shrunk = shrink(schedule, scfg);
  EXPECT_TRUE(shrunk.converged);
  EXPECT_LE(shrunk.schedule.events.size(), 3u);
  EXPECT_GE(shrunk.schedule.events.size(), 1u);

  // Replay the minimal schedule: still fails, same class, deterministically.
  const ChaosRunResult replay1 = run_schedule(shrunk.schedule);
  const ChaosRunResult replay2 = run_schedule(shrunk.schedule);
  bool still_fails = false;
  for (const InvariantViolation& v : replay1.violations) {
    if (v.invariant == shrunk.invariant) still_fails = true;
  }
  EXPECT_TRUE(still_fails);
  EXPECT_EQ(replay1.digest, replay2.digest);

  // And the minimal schedule survives a repro-file round trip.
  const std::string path = ::testing::TempDir() + "chaos_shrunk_" +
                           std::string(to_string(pc.bug)) + ".bin";
  ASSERT_TRUE(save_repro(shrunk.schedule, path));
  const auto reloaded = load_repro(path);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(*reloaded, shrunk.schedule);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, PlantedBugDetection,
    ::testing::Values(
        PlantedCase{PlantedBug::kConservation, "conservation"},
        PlantedCase{PlantedBug::kStuckSession, "stuck-session"},
        PlantedCase{PlantedBug::kLeaseLeak, "stale-lease"},
        PlantedCase{PlantedBug::kMemoryLeak, "memory-leak"},
        PlantedCase{PlantedBug::kReputation, "reputation"},
        PlantedCase{PlantedBug::kReplyCache, "reply-cache"}),
    [](const ::testing::TestParamInfo<PlantedCase>& info) {
      std::string name = to_string(info.param.bug);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The memory-leak invariant covers standby pools as well: a chain there
// that no deployment's mirror accounts for is flagged, as chain:orphan is
// on a primary pool.
TEST(ChaosAudit, OrphanChainOnAStandbyPoolIsAMemoryLeak) {
  telemetry::MetricsRegistry::global().reset();
  PopulationConfig pcfg;
  pcfg.clients = 4;
  pcfg.lease_duration = seconds(10);
  pcfg.standbys = true;
  pcfg.checkpoint_interval = milliseconds(200);
  PopulationTestbed tb(pcfg);
  tb.make_agents();
  for (auto& agent : tb.agents) agent->start_session(tb.addrs.control_a);
  tb.net.sim().run_until(seconds(3));

  InvariantAuditor before(tb);
  before.audit_quiescent();
  for (const InvariantViolation& v : before.violations()) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }
  ASSERT_GT(tb.a.standby_mbox->instances(), 0);  // the mirrors are up

  std::vector<std::unique_ptr<Middlebox>> orphan;
  orphan.push_back(tb.a.store->make("tracker-blocker", {}));
  tb.a.standby_mbox->build_chain("chain:orphan", std::move(orphan),
                                 [](Chain*) {});
  tb.net.sim().run_until(seconds(4));

  InvariantAuditor after(tb);
  after.audit_quiescent();
  bool flagged = false;
  for (const InvariantViolation& v : after.violations()) {
    if (v.invariant == "memory-leak" &&
        v.detail.starts_with("net-a standby pool holds")) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged) << "violations: " << after.violations().size();
}

// --- campaign --------------------------------------------------------------

TEST(ChaosCampaign, MultiSeedCampaignIsCleanAndDeterministic) {
  ChaosPlannerConfig cfg = quick_planner();
  const ChaosCampaignResult c1 = run_campaign(1, 3, cfg);
  const ChaosCampaignResult c2 = run_campaign(1, 3, cfg);
  ASSERT_EQ(c1.runs.size(), 3u);
  EXPECT_EQ(c1.failed_seeds, 0);
  for (std::size_t i = 0; i < c1.runs.size(); ++i) {
    EXPECT_TRUE(c1.runs[i].clean)
        << "seed " << c1.runs[i].seed << ": " << c1.runs[i].first_violation;
    EXPECT_EQ(c1.runs[i].digest, c2.runs[i].digest);
  }
}

}  // namespace
}  // namespace pvn

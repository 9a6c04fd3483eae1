// Unit tests for the bench harness in bench/common.h: the A/B comparator
// every host-time gate uses, fed scripted samples instead of a clock, and
// the JSON writer every bench summary goes through.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"

namespace pvn::bench {
namespace {

// --- ab_compare --------------------------------------------------------------

// Scripted durations are multiples of the minimum measurement time.
constexpr double kMin = kMinRunSeconds;

// A side that returns the same sample on every run and counts its runs.
struct FixedSide {
  AbSample sample;
  int runs = 0;
  AbSample operator()() {
    ++runs;
    return sample;
  }
};

TEST(AbCompare, EqualSidesGiveARatioOfOne) {
  const AbSample s{1000, kMin};
  const AbResult r = ab_compare([&] { return s; }, [&] { return s; }, 5);
  EXPECT_DOUBLE_EQ(r.ratio, 1.0);
  EXPECT_DOUBLE_EQ(r.ratio_iqr, 0.0);
  EXPECT_DOUBLE_EQ(r.overhead_pct(), 0.0);
  EXPECT_DOUBLE_EQ(r.base_rate, 1000 / kMin);
  EXPECT_DOUBLE_EQ(r.variant_rate, 1000 / kMin);
}

TEST(AbCompare, VariantTenPercentSlowerFailsAFivePercentGate) {
  // Same work, 10% more time per run.
  const AbResult r = ab_compare([] { return AbSample{1000, kMin}; },
                                [] { return AbSample{1000, 1.1 * kMin}; }, 7);
  EXPECT_NEAR(r.ratio, 1.0 / 1.1, 1e-12);
  EXPECT_NEAR(r.overhead_pct(), 10.0, 1.0);
  EXPECT_FALSE(r.overhead_pct() < 5.0);
}

TEST(AbCompare, AlternatesWhichSideGoesFirst) {
  std::string order;
  const auto side = [&order](char name) {
    return [&order, name] {
      order += name;
      return AbSample{1, kMin};
    };
  };
  ab_compare(side('A'), side('B'), 4);
  // One warm-up of each side, then pairs AB, BA, AB, BA.
  EXPECT_EQ(order, "AB" "AB" "BA" "AB" "BA");
}

TEST(AbCompare, RepeatsAShortRunAndSumsItsWorkAndTime) {
  // Runs shorter than the minimum repeat until it has passed. The base's
  // runs take 0.4 of it, so three make a measurement: 30 units in 1.2
  // minimums. The variant alternates runs of (1 unit, 0.8 minimum) and
  // (8 units, 0.4 minimum); its warm-up takes the first, so every
  // measurement is the second then the first: 9 units in 1.2 minimums, a
  // ratio of 0.3. Averaging the two runs' rates (20 and 1.25 units per
  // minimum, against the base's 25) would give 0.425 instead.
  FixedSide base{{10, 0.4 * kMin}};
  const std::vector<AbSample> script = {{1, 0.8 * kMin}, {8, 0.4 * kMin}};
  std::size_t variant_runs = 0;
  const auto variant = [&] { return script[variant_runs++ % script.size()]; };
  const int pairs = 3;
  const AbResult r = ab_compare(std::ref(base), variant, pairs);
  EXPECT_EQ(base.runs, 1 + 3 * pairs);
  EXPECT_EQ(variant_runs, 1u + 2 * pairs);
  EXPECT_NEAR(r.base_rate, 30 / (1.2 * kMin), 1e-9 * r.base_rate);
  EXPECT_NEAR(r.variant_rate, 9 / (1.2 * kMin), 1e-9 * r.variant_rate);
  EXPECT_NEAR(r.ratio, 0.3, 1e-12);
}

TEST(AbCompare, SpreadIsTheInterquartileRangeOfThePairRatios) {
  // The base runs at 100/s throughout; the variant's rate per measurement
  // (after its warm-up run) is scripted, so the pair ratios are 0.8, 1.3,
  // 0.9 and 1.0. Sorted: 0.8 0.9 1.0 1.3. With linear interpolation the
  // quartiles are 0.875 and 1.075 and the median is 0.95.
  const std::vector<double> rates = {100, 80, 130, 90, 100};
  std::size_t next = 0;
  const auto variant = [&] { return AbSample{rates[next++] * kMin, kMin}; };
  const AbResult r =
      ab_compare([] { return AbSample{100 * kMin, kMin}; }, variant, 4);
  EXPECT_NEAR(r.ratio, 0.95, 1e-12);
  EXPECT_NEAR(r.ratio_iqr, 1.075 - 0.875, 1e-12);
  EXPECT_NEAR(r.overhead_pct(), 5.0, 1e-9);
  EXPECT_NEAR(r.base_rate, 100.0, 1e-9);
  EXPECT_NEAR(r.variant_rate, 95.0, 1e-9);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(quantile({3, 1, 2}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4, 5}, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2}, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(quantile({7}, 0.75), 7.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

// --- quick mode --------------------------------------------------------------

TEST(QuickMode, ReadsTheFlagAndTheEnvironment) {
  char prog[] = "bench";
  char quick[] = "--quick";
  char other[] = "--telemetry-out=out";
  char* with_flag[] = {prog, other, quick};
  char* without_flag[] = {prog, other};
  unsetenv("PVN_BENCH_QUICK");
  EXPECT_TRUE(quick_mode(3, with_flag));
  EXPECT_FALSE(quick_mode(2, without_flag));
  setenv("PVN_BENCH_QUICK", "1", 1);
  EXPECT_TRUE(quick_mode(2, without_flag));
  setenv("PVN_BENCH_QUICK", "0", 1);
  EXPECT_FALSE(quick_mode(2, without_flag));
  EXPECT_TRUE(quick_mode(3, with_flag));
  unsetenv("PVN_BENCH_QUICK");
}

// --- JsonWriter --------------------------------------------------------------

TEST(JsonWriter, CompactNestingAndCommas) {
  JsonWriter w(/*pretty=*/false);
  w.begin_object()
      .field("name", "e99")
      .begin_array("runs")
      .begin_object()
      .field("ok", true)
      .end_object()
      .begin_object()
      .field("ok", false)
      .field("n", 2)
      .end_object()
      .end_array()
      .begin_object("empty")
      .end_object()
      .begin_array("none")
      .end_array()
      .begin_object("inner")
      .begin_object("deeper")
      .field("x", 1)
      .end_object()
      .end_object()
      .end_object();
  EXPECT_EQ(w.str(),
            R"({"name":"e99","runs":[{"ok":true},{"ok":false,"n":2}],)"
            R"("empty":{},"none":[],"inner":{"deeper":{"x":1}}})");
}

TEST(JsonWriter, PrettyIndentsTwoSpacesPerLevel) {
  JsonWriter w;
  w.begin_object()
      .field("a", 1)
      .begin_array("l")
      .begin_object()
      .field("x", 2.5, 1)
      .end_object()
      .end_array()
      .begin_object("e")
      .end_object()
      .end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"a\": 1,\n"
            "  \"l\": [\n"
            "    {\n"
            "      \"x\": 2.5\n"
            "    }\n"
            "  ],\n"
            "  \"e\": {}\n"
            "}");
}

TEST(JsonWriter, IntegersAreExact) {
  JsonWriter w(false);
  w.begin_object()
      .field("int", -7)
      .field("size", std::size_t{130})
      .field("u64", std::numeric_limits<std::uint64_t>::max())
      .field("i64", std::numeric_limits<std::int64_t>::min())
      .end_object();
  EXPECT_EQ(w.str(),
            R"({"int":-7,"size":130,"u64":18446744073709551615,)"
            R"("i64":-9223372036854775808})");
}

TEST(JsonWriter, NumbersUseAFixedCountOfDecimals) {
  JsonWriter w(false);
  w.begin_object()
      .field("three", 12.34567, 3)
      .field("padded", 1.5, 3)
      .field("zero", 2871849.6, 0)
      .field("neg", -0.25, 2)
      .end_object();
  // 0 decimals prints no point, so the value still reads back as an integer.
  EXPECT_EQ(w.str(),
            R"({"three":12.346,"padded":1.500,"zero":2871850,"neg":-0.25})");
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlCharacters) {
  JsonWriter w(false);
  w.begin_object()
      .field("repro_file", "dir\\\"odd\"\nname\t\x01.bin")
      .field("key \"q\"", std::string("plain"))
      .end_object();
  EXPECT_EQ(w.str(),
            R"({"repro_file":"dir\\\"odd\"\u000aname\u0009\u0001.bin",)"
            R"("key \"q\"":"plain"})");
}

TEST(JsonWriter, WritesToThePathInPvnBenchJson) {
  const std::string path = testing::TempDir() + "bench_common_test.json";
  JsonWriter w(false);
  w.begin_object().field("k", "v").end_object();
  setenv("PVN_BENCH_JSON", path.c_str(), 1);
  EXPECT_TRUE(write_json(w, "unused_default.json"));
  unsetenv("PVN_BENCH_JSON");
  std::ifstream in(path);
  std::stringstream got;
  got << in.rdbuf();
  EXPECT_EQ(got.str(), w.str() + "\n");
  std::remove(path.c_str());
}

TEST(JsonWriter, ReportsAFileItCannotWrite) {
  const std::string path = testing::TempDir() + "no_such_dir/out.json";
  JsonWriter w(false);
  w.begin_object().end_object();
  setenv("PVN_BENCH_JSON", path.c_str(), 1);
  EXPECT_FALSE(write_json(w, "unused_default.json"));
  unsetenv("PVN_BENCH_JSON");
}

}  // namespace
}  // namespace pvn::bench

// Self-tests for tools/bench_check: the JSON record parser, the
// baseline diff with per-metric tolerances, the `--require` ratio
// assertions, and the CLI exit codes over temp files.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_check/bench_check.h"

namespace bench_check {
namespace {

std::vector<Record> Parse(const std::string& json) {
  std::vector<Record> records;
  std::string error;
  EXPECT_TRUE(ParseRecords(json, &records, &error)) << error;
  return records;
}

const char kBaseline[] =
    "[\n"
    "  {\"name\": \"exp/a\", \"workers\": 1, \"cache_policy\": \"LFU\", "
    "\"total_micros\": 1000.0, \"wall_micros\": 50.0, \"hit_rate\": "
    "0.6086},\n"
    "  {\"name\": \"exp/a\", \"workers\": 2, \"cache_policy\": \"LFU\", "
    "\"total_micros\": 500.0, \"wall_micros\": 30.0, \"hit_rate\": "
    "0.6086}\n"
    "]\n";

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

TEST(ParseRecords, SplitsStringsAndMetrics) {
  std::vector<Record> r = Parse(kBaseline);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].name, "exp/a");
  EXPECT_EQ(r[0].cache_policy(), "LFU");
  EXPECT_DOUBLE_EQ(r[0].metrics.at("total_micros"), 1000.0);
  EXPECT_DOUBLE_EQ(r[1].workers(), 2.0);
}

TEST(ParseRecords, EmptyArrayAndErrors) {
  std::vector<Record> records;
  std::string error;
  EXPECT_TRUE(ParseRecords("[]", &records, &error));
  EXPECT_TRUE(records.empty());
  EXPECT_FALSE(ParseRecords("{\"name\": \"x\"}", &records, &error));
  EXPECT_FALSE(ParseRecords("[{\"name\": \"x\"", &records, &error));
  // A record with no name cannot be matched to a baseline.
  EXPECT_FALSE(ParseRecords("[{\"workers\": 1}]", &records, &error));
  EXPECT_NE(error.find("name"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Baseline diff
// ---------------------------------------------------------------------------

TEST(CompareRecords, IdenticalIsClean) {
  std::vector<Record> base = Parse(kBaseline);
  EXPECT_TRUE(CompareRecords(base, base, CheckOptions{}).empty());
}

TEST(CompareRecords, DriftPastToleranceFails) {
  std::vector<Record> base = Parse(kBaseline);
  std::vector<Record> fresh = base;
  fresh[0].metrics["total_micros"] = 1200.0;  // +20% > 15%
  std::vector<std::string> failures =
      CompareRecords(base, fresh, CheckOptions{});
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("total_micros"), std::string::npos);
  EXPECT_NE(failures[0].find("workers=1"), std::string::npos);

  fresh[0].metrics["total_micros"] = 1100.0;  // +10% within 15%
  EXPECT_TRUE(CompareRecords(base, fresh, CheckOptions{}).empty());
}

TEST(CompareRecords, PerMetricToleranceOverrides) {
  std::vector<Record> base = Parse(kBaseline);
  std::vector<Record> fresh = base;
  fresh[0].metrics["hit_rate"] = 0.68;  // ~12% drift
  CheckOptions strict;
  strict.metric_tolerance["hit_rate"] = 0.02;
  EXPECT_EQ(CompareRecords(base, fresh, strict).size(), 1u);
  EXPECT_TRUE(CompareRecords(base, fresh, CheckOptions{}).empty());
}

TEST(CompareRecords, WallMetricsSkippedByDefault) {
  std::vector<Record> base = Parse(kBaseline);
  std::vector<Record> fresh = base;
  fresh[0].metrics["wall_micros"] = 5000.0;  // 100x: another machine
  EXPECT_TRUE(CompareRecords(base, fresh, CheckOptions{}).empty());
  CheckOptions check_wall;
  check_wall.skip_metrics.erase("wall_micros");
  EXPECT_EQ(CompareRecords(base, fresh, check_wall).size(), 1u);
}

TEST(CompareRecords, DeclaredHostMetricsSkippedUndeclaredStillFail) {
  // The workers=2 record declares its makespan and hit rate
  // host-dependent (thread interleaving); the workers=1 record declares
  // nothing.
  const char kDeclared[] =
      "[\n"
      "  {\"name\": \"exp/a\", \"workers\": 1, \"total_micros\": 1000.0, "
      "\"hit_rate\": 0.6},\n"
      "  {\"name\": \"exp/a\", \"workers\": 2, \"total_micros\": 500.0, "
      "\"hit_rate\": 0.6, \"host_metrics\": \"total_micros hit_rate\", "
      "\"ops\": 40.0}\n"
      "]\n";
  std::vector<Record> base = Parse(kDeclared);
  std::vector<Record> fresh = base;
  fresh[1].metrics["total_micros"] = 700.0;  // +40%: skipped, declared
  fresh[1].metrics["hit_rate"] = 0.4;        // skipped, declared
  EXPECT_TRUE(CompareRecords(base, fresh, CheckOptions{}).empty());

  // An undeclared metric of the same record still fails...
  fresh[1].metrics["ops"] = 80.0;
  std::vector<std::string> failures =
      CompareRecords(base, fresh, CheckOptions{});
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("ops drifted"), std::string::npos);
  // ...and so does the same metric on a record that declares nothing.
  fresh[1].metrics["ops"] = 40.0;
  fresh[0].metrics["total_micros"] = 1400.0;
  failures = CompareRecords(base, fresh, CheckOptions{});
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("workers=1"), std::string::npos);
  EXPECT_NE(failures[0].find("total_micros"), std::string::npos);
}

TEST(CompareRecords, HostMetricDeclarationMustMatchBaseline) {
  std::vector<Record> base = Parse(kBaseline);
  std::vector<Record> fresh = base;
  // A fresh run that newly exempts a metric is not silently accepted.
  fresh[0].strings["host_metrics"] = "total_micros";
  fresh[0].metrics["total_micros"] = 2000.0;
  std::vector<std::string> failures =
      CompareRecords(base, fresh, CheckOptions{});
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_NE(failures[0].find("host_metrics differ"), std::string::npos);
  EXPECT_NE(failures[1].find("total_micros drifted"), std::string::npos);
}

TEST(CompareRecords, MissingRecordsFailBothWays) {
  std::vector<Record> base = Parse(kBaseline);
  std::vector<Record> fresh = {base[0]};
  std::vector<std::string> failures =
      CompareRecords(base, fresh, CheckOptions{});
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("missing from the fresh run"),
            std::string::npos);

  failures = CompareRecords(fresh, base, CheckOptions{});
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("not in the baseline"), std::string::npos);
}

TEST(CompareRecords, ZeroBaselineComparesAbsolutely) {
  std::vector<Record> base = Parse(
      "[{\"name\": \"x\", \"shed\": 0.0}, {\"name\": \"y\", \"shed\": "
      "0.0}]");
  std::vector<Record> fresh = base;
  fresh[0].metrics["shed"] = 0.1;  // |0.1 - 0| / max(0, 1) = 0.1 < 0.15
  fresh[1].metrics["shed"] = 2.0;  // 2.0 > 0.15
  std::vector<std::string> failures =
      CompareRecords(base, fresh, CheckOptions{});
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("'y"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Require assertions
// ---------------------------------------------------------------------------

TEST(Require, ParsesSelectorsOperatorsAndWorkers) {
  RequireAssertion a;
  std::string error;
  ASSERT_TRUE(ParseRequire("exp/a@2:total_micros / exp/b:wall_micros <= 0.5",
                           &a, &error))
      << error;
  EXPECT_EQ(a.num_name, "exp/a");
  EXPECT_DOUBLE_EQ(a.num_workers, 2.0);
  EXPECT_EQ(a.num_metric, "total_micros");
  EXPECT_EQ(a.den_name, "exp/b");
  EXPECT_DOUBLE_EQ(a.den_workers, -1.0);
  EXPECT_EQ(a.op, RequireAssertion::Op::kLe);
  EXPECT_DOUBLE_EQ(a.bound, 0.5);

  EXPECT_FALSE(ParseRequire("exp/a:m >= 1", &a, &error));
  EXPECT_FALSE(ParseRequire("exp/a:m / exp/b:m != 1", &a, &error));
  EXPECT_FALSE(ParseRequire("exp/a / exp/b:m >= 1", &a, &error));
  EXPECT_FALSE(ParseRequire("exp/a:m / exp/b:m >= 1 trailing", &a, &error));
}

TEST(Require, EvaluatesRatios) {
  std::vector<Record> fresh = Parse(kBaseline);
  auto check = [&fresh](const std::string& text) {
    RequireAssertion a;
    std::string error;
    EXPECT_TRUE(ParseRequire(text, &a, &error)) << error;
    return CheckRequires(fresh, {a});
  };
  // 1000 / 500 = 2.0 exactly.
  EXPECT_TRUE(
      check("exp/a@1:total_micros / exp/a@2:total_micros >= 2").empty());
  EXPECT_TRUE(
      check("exp/a@1:total_micros / exp/a@2:total_micros == 2").empty());
  EXPECT_EQ(
      check("exp/a@1:total_micros / exp/a@2:total_micros >= 2.5").size(),
      1u);
  // Without @workers the name matches two records: ambiguous.
  std::vector<std::string> ambiguous =
      check("exp/a:total_micros / exp/a@2:total_micros >= 1");
  ASSERT_EQ(ambiguous.size(), 1u);
  EXPECT_NE(ambiguous[0].find("ambiguous"), std::string::npos);
  // Unknown records and metrics are failures, not crashes.
  EXPECT_EQ(check("ghost:m / exp/a@2:total_micros >= 1").size(), 1u);
  EXPECT_EQ(check("exp/a@1:ghost / exp/a@2:total_micros >= 1").size(), 1u);
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

class CliTest : public ::testing::Test {
 protected:
  std::string Write(const std::string& filename, const std::string& text) {
    const std::string path =
        ::testing::TempDir() + "/bench_check_" + filename;
    std::ofstream out(path);
    out << text;
    return path;
  }

  int Run(std::vector<std::string> args) {
    std::ostringstream out, err;
    int code = RunCli(args, out, err);
    out_ = out.str();
    err_ = err.str();
    return code;
  }

  std::string out_, err_;
};

TEST_F(CliTest, CleanDiffAndPassingRequire) {
  const std::string base = Write("base.json", kBaseline);
  const std::string fresh = Write("fresh.json", kBaseline);
  EXPECT_EQ(Run({"--baseline", base, "--fresh", fresh, "--require",
                 "exp/a@1:total_micros / exp/a@2:total_micros == 2"}),
            0)
      << out_ << err_;
  EXPECT_NE(out_.find("clean"), std::string::npos);
}

TEST_F(CliTest, RegressionExitsOne) {
  const std::string base = Write("base2.json", kBaseline);
  std::string drifted = kBaseline;
  std::size_t pos = drifted.find("1000.0");
  drifted.replace(pos, 6, "2000.0");
  const std::string fresh = Write("fresh2.json", drifted);
  EXPECT_EQ(Run({"--baseline", base, "--fresh", fresh}), 1) << out_;
  EXPECT_NE(out_.find("total_micros"), std::string::npos);
  // A wider tolerance admits the same drift.
  EXPECT_EQ(Run({"--baseline", base, "--fresh", fresh, "--tolerance",
                 "1.5"}),
            0)
      << out_;
  // A per-metric override re-tightens it.
  EXPECT_EQ(Run({"--baseline", base, "--fresh", fresh, "--tolerance", "1.5",
                 "--metric-tolerance", "total_micros=0.15"}),
            1)
      << out_;
}

TEST_F(CliTest, UsageAndIoErrorsExitTwo) {
  EXPECT_EQ(Run({}), 2);
  EXPECT_EQ(Run({"--fresh", "/nonexistent-bench.json", "--baseline",
                 "/nonexistent-bench.json"}),
            2);
  const std::string bad = Write("bad.json", "not json");
  EXPECT_EQ(Run({"--baseline", bad, "--fresh", bad}), 2);
  const std::string fresh = Write("fresh3.json", kBaseline);
  EXPECT_EQ(Run({"--fresh", fresh, "--require", "malformed"}), 2);
  EXPECT_EQ(Run({"--fresh", fresh, "--frobnicate"}), 2);
  EXPECT_EQ(Run({"--help"}), 0);
}

}  // namespace
}  // namespace bench_check

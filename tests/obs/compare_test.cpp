// compare_runs: the perf-regression gate's diff logic over both document
// shapes.
#include "obs/compare.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.h"

namespace e10::obs {
namespace {

Json parse(const std::string& text) {
  auto result = Json::parse(text);
  EXPECT_TRUE(result.is_ok()) << result.status().message();
  return result.value();
}

/// Two-point run-report array with the first point's figures parameterized.
std::string report_doc(double io0, double exchange0, const char* checksum0) {
  char buf[768];
  std::snprintf(buf, sizeof(buf), R"([
    {"config": {"combo": "8_4m", "cache_case": "cache_enabled",
                "pipeline": "on", "content_checksum": "%s"},
     "phases": {"exchange": {"max_s": %f}, "write_contig": {"max_s": 2.0}},
     "derived": {"io_time_s": %f}},
    {"config": {"combo": "8_4m", "cache_case": "cache_disabled",
                "pipeline": "on", "content_checksum": "bbbb"},
     "phases": {"exchange": {"max_s": 0.5}},
     "derived": {"io_time_s": 4.0}}
  ])",
                checksum0, exchange0, io0);
  return buf;
}

Json baseline_doc() { return parse(report_doc(10.0, 1.0, "aaaa")); }

TEST(Compare, IdenticalReportsPass) {
  const Json doc = baseline_doc();
  const auto report = compare_runs(doc, doc, CompareOptions{});
  ASSERT_TRUE(report.is_ok()) << report.status().message();
  EXPECT_EQ(report.value().points.size(), 2u);
  EXPECT_EQ(report.value().regressions, 0u);
  EXPECT_EQ(report.value().improvements, 0u);
  EXPECT_TRUE(report.value().ok(CompareOptions{}));
  const std::string table =
      compare_table(report.value(), CompareOptions{});
  EXPECT_NE(table.find("PASS"), std::string::npos);
  EXPECT_NE(table.find("8_4m/cache_enabled/pipeline=on"), std::string::npos);
}

TEST(Compare, RegressionBeyondThresholdFailsWithPhaseAttribution) {
  // +10% io time on the first point; the exchange phase grew by 1 s.
  const auto report =
      compare_runs(baseline_doc(), parse(report_doc(11.0, 2.0, "aaaa")),
                   CompareOptions{});
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().regressions, 1u);
  EXPECT_FALSE(report.value().ok(CompareOptions{}));
  const PointDiff& diff = report.value().points[0];
  EXPECT_TRUE(diff.regression);
  EXPECT_NEAR(diff.ratio, 1.1, 1e-9);
  ASSERT_FALSE(diff.phase_deltas.empty());
  EXPECT_EQ(diff.phase_deltas[0].first, "exchange");
  EXPECT_NEAR(diff.phase_deltas[0].second, 1.0, 1e-9);
  const std::string table =
      compare_table(report.value(), CompareOptions{});
  EXPECT_NE(table.find("REGRESSION"), std::string::npos);
  EXPECT_NE(table.find("exchange"), std::string::npos);
  EXPECT_NE(table.find("FAIL"), std::string::npos);

  // The committed pipeline gate baseline passes against itself and fails
  // once every point's io_time_s is 10% slower.
  std::ifstream file(std::string(E10_REPO_ROOT) +
                     "/results/ci/baseline_pipeline.json");
  std::stringstream text;
  text << file.rdbuf();
  const Json committed = parse(text.str());
  Json slower = Json::array();
  for (const Json& run : committed.elements()) {
    Json derived = run.at("derived");
    derived.set("io_time_s",
                Json::number(derived.at("io_time_s").as_number() * 1.10));
    Json copy = run;
    copy.set("derived", std::move(derived));
    slower.push(std::move(copy));
  }
  const auto same = compare_runs(committed, committed, CompareOptions{});
  ASSERT_TRUE(same.is_ok());
  EXPECT_TRUE(same.value().ok(CompareOptions{}));
  const auto gate = compare_runs(committed, slower, CompareOptions{});
  ASSERT_TRUE(gate.is_ok());
  EXPECT_EQ(gate.value().regressions, committed.size());
  EXPECT_FALSE(gate.value().ok(CompareOptions{}));
}

TEST(Compare, ThresholdAbsorbsSmallDrift) {
  const Json candidate = parse(report_doc(10.1, 1.0, "aaaa"));  // +1%
  const auto report =
      compare_runs(baseline_doc(), candidate, CompareOptions{});
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().regressions, 0u);

  CompareOptions tight;
  tight.threshold = 0.005;
  const auto strict = compare_runs(baseline_doc(), candidate, tight);
  ASSERT_TRUE(strict.is_ok());
  EXPECT_EQ(strict.value().regressions, 1u);
}

TEST(Compare, ImprovementIsNotAFailure) {
  const auto report =
      compare_runs(baseline_doc(), parse(report_doc(8.0, 1.0, "aaaa")),
                   CompareOptions{});
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().regressions, 0u);
  EXPECT_EQ(report.value().improvements, 1u);
  EXPECT_TRUE(report.value().ok(CompareOptions{}));
}

TEST(Compare, ChecksumMismatchOnlyFailsWhenStrict) {
  const auto report =
      compare_runs(baseline_doc(), parse(report_doc(10.0, 1.0, "cccc")),
                   CompareOptions{});
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report.value().checksum_mismatch);
  EXPECT_TRUE(report.value().points[0].checksum_mismatch);
  EXPECT_TRUE(report.value().ok(CompareOptions{}));
  CompareOptions strict;
  strict.strict_checksums = true;
  EXPECT_FALSE(report.value().ok(strict));
}

TEST(Compare, MissingAndNewPointsAreListedNotFailed) {
  const Json candidate = parse(R"([
    {"config": {"combo": "8_4m", "cache_case": "cache_enabled",
                "pipeline": "on", "content_checksum": "aaaa"},
     "derived": {"io_time_s": 10.0}},
    {"config": {"combo": "64_16m", "cache_case": "cache_enabled",
                "pipeline": "on", "content_checksum": "dddd"},
     "derived": {"io_time_s": 3.0}}
  ])");
  const auto report =
      compare_runs(baseline_doc(), candidate, CompareOptions{});
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().points.size(), 1u);
  ASSERT_EQ(report.value().missing_in_candidate.size(), 1u);
  EXPECT_EQ(report.value().missing_in_candidate[0],
            "8_4m/cache_disabled/pipeline=on");
  ASSERT_EQ(report.value().missing_in_baseline.size(), 1u);
  EXPECT_TRUE(report.value().ok(CompareOptions{}));
}

TEST(Compare, BenchResultsFilesCompareColumnWise) {
  const Json doc = parse(R"({
    "description": "x", "entries": [
      {"combo": "8_4m", "cache_case": "cache_enabled",
       "io_time_s_pipelined": 5.0, "io_time_s_synchronous": 6.0},
      {"combo": "8_4m", "cache_case": "cache_disabled",
       "io_time_s": 2.0}
    ]})");
  const Json slower = parse(R"({
    "description": "x", "entries": [
      {"combo": "8_4m", "cache_case": "cache_enabled",
       "io_time_s_pipelined": 5.5, "io_time_s_synchronous": 6.0},
      {"combo": "8_4m", "cache_case": "cache_disabled",
       "io_time_s": 2.0}
    ]})");
  const auto report = compare_runs(doc, slower, CompareOptions{});
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().points.size(), 3u);
  EXPECT_EQ(report.value().regressions, 1u);
  bool found = false;
  for (const PointDiff& point : report.value().points) {
    if (point.key == "8_4m/cache_enabled/pipelined") {
      found = true;
      EXPECT_TRUE(point.regression);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Compare, MalformedDocumentsAreErrorsNotCrashes) {
  const Json good = baseline_doc();
  EXPECT_FALSE(compare_runs(parse(R"({"foo": 1})"), good, CompareOptions{})
                   .is_ok());
  EXPECT_FALSE(compare_runs(good, parse(R"([{"config": {}}])"),
                            CompareOptions{})
                   .is_ok());
  EXPECT_FALSE(
      compare_runs(good, parse(R"({"entries": [{"combo": "a"}]})"),
                   CompareOptions{})
          .is_ok());
  // 'entries' of the wrong kind and non-object entries used to throw out of
  // the Json accessors; they must surface as parse errors instead.
  EXPECT_FALSE(
      compare_runs(good, parse(R"({"entries": 42})"), CompareOptions{})
          .is_ok());
  EXPECT_FALSE(
      compare_runs(good, parse(R"({"entries": [42]})"), CompareOptions{})
          .is_ok());
  // Run-report entries that are not objects are rejected, not dereferenced.
  EXPECT_FALSE(compare_runs(good, parse(R"([42])"), CompareOptions{}).is_ok());
}

TEST(Compare, EmptyDocumentsCannotVacuouslyPass) {
  const Json good = baseline_doc();
  const auto empty_base = compare_runs(parse("[]"), good, CompareOptions{});
  ASSERT_FALSE(empty_base.is_ok());
  EXPECT_NE(empty_base.status().message().find("baseline"),
            std::string::npos);
  const auto empty_cand = compare_runs(
      good, parse(R"({"description": "x", "entries": []})"), CompareOptions{});
  ASSERT_FALSE(empty_cand.is_ok());
  EXPECT_NE(empty_cand.status().message().find("candidate"),
            std::string::npos);
}

TEST(Compare, EngineCounterDriftFailsExactlyEvenWithinThreshold) {
  // engine.* derived counters are deterministic scheduler counts; a drift
  // of even one event is a failure, no matter how small relative to the
  // threshold — and io_time staying identical must not mask it.
  const auto doc = [](double events) {
    char buf[512];
    std::snprintf(buf, sizeof(buf), R"([
      {"config": {"combo": "8_4m", "cache_case": "cache_enabled"},
       "derived": {"io_time_s": 10.0, "engine.events": %f,
                   "engine.switches": 500.0}}
    ])",
                  events);
    return parse(buf);
  };
  const auto same = compare_runs(doc(1000.0), doc(1000.0), CompareOptions{});
  ASSERT_TRUE(same.is_ok());
  EXPECT_EQ(same.value().regressions, 0u);

  const auto drift = compare_runs(doc(1000.0), doc(1001.0), CompareOptions{});
  ASSERT_TRUE(drift.is_ok());
  EXPECT_EQ(drift.value().regressions, 1u);
  ASSERT_EQ(drift.value().points[0].counter_mismatches.size(), 1u);
  EXPECT_NE(drift.value().points[0].counter_mismatches[0].find(
                "engine.events"),
            std::string::npos);
  const std::string table = compare_table(drift.value(), CompareOptions{});
  EXPECT_NE(table.find("counter drift"), std::string::npos);
  EXPECT_NE(table.find("FAIL"), std::string::npos);
}

TEST(Compare, DisjointSweepsAreAnErrorNotAPass) {
  // Every baseline point missing from the candidate and vice versa: two
  // documents from different sweeps. A gate verdict over zero shared points
  // would be meaningless, so this errors rather than printing PASS.
  const Json other = parse(R"([
    {"config": {"combo": "64_16m", "cache_case": "cache_enabled"},
     "derived": {"io_time_s": 1.0}}
  ])");
  const auto report = compare_runs(baseline_doc(), other, CompareOptions{});
  ASSERT_FALSE(report.is_ok());
  EXPECT_NE(report.status().message().find("no overlapping points"),
            std::string::npos);
}

}  // namespace
}  // namespace e10::obs

#include "obs/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/units.h"

namespace e10::obs {
namespace {

using namespace e10::units;

Time& at(PhaseTotals& totals, int rank, prof::Phase phase) {
  return totals[static_cast<std::size_t>(rank)]
               [static_cast<std::size_t>(phase)];
}

TEST(Report, PhaseTableCoversEveryPhase) {
  PhaseTotals totals(2);
  at(totals, 0, prof::Phase::exchange) = seconds(1);
  at(totals, 1, prof::Phase::exchange) = seconds(3);
  const Json table = phase_table_json(totals);
  EXPECT_EQ(table.size(), prof::kPhaseCount);
  const Json& row = table.at("exchange");
  EXPECT_DOUBLE_EQ(row.at("min_s").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(row.at("avg_s").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(row.at("max_s").as_number(), 3.0);
  EXPECT_THROW(phase_table_json(PhaseTotals{}), std::logic_error);
}

TEST(Report, PhaseTableIsNearestRankOverRanks) {
  // Rank totals of exchange: 1 s, 2 s, 3 s, 4 s.
  PhaseTotals totals(4);
  for (int r = 0; r < 4; ++r) {
    at(totals, r, prof::Phase::exchange) = seconds(r + 1);
  }
  EXPECT_EQ(max_over_ranks(totals, prof::Phase::exchange), seconds(4));
  EXPECT_EQ(max_over_ranks(totals, prof::Phase::calc), 0);
  const Json table = phase_table_json(totals);
  // Nearest-rank: index = ceil(q * n) - 1 over the sorted totals.
  const Json& exchange = table.at("exchange");
  EXPECT_DOUBLE_EQ(exchange.at("min_s").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(exchange.at("p50_s").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(exchange.at("p95_s").as_number(), 4.0);
  EXPECT_DOUBLE_EQ(exchange.at("p99_s").as_number(), 4.0);
  EXPECT_DOUBLE_EQ(exchange.at("avg_s").as_number(), 2.5);
  EXPECT_DOUBLE_EQ(exchange.at("max_s").as_number(), 4.0);
  // Untouched phase: all aggregates are zero.
  for (const auto& [stat, value] : table.at("calc").members()) {
    EXPECT_DOUBLE_EQ(value.as_number(), 0.0) << stat;
  }

  // A rank that never entered the phase is a zero row, and counts: the
  // same totals on ranks 1-4 of five.
  PhaseTotals shifted(5);
  for (int r = 0; r < 4; ++r) {
    at(shifted, r + 1, prof::Phase::exchange) = seconds(r + 1);
  }
  const Json shifted_table = phase_table_json(shifted);
  const Json& with_zero = shifted_table.at("exchange");
  EXPECT_DOUBLE_EQ(with_zero.at("min_s").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(with_zero.at("p50_s").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(with_zero.at("p95_s").as_number(), 4.0);
  EXPECT_DOUBLE_EQ(with_zero.at("avg_s").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(with_zero.at("max_s").as_number(), 4.0);
}

TEST(Report, PhaseNamesAreStable) {
  // The bench output parses/prints these; keep them fixed.
  EXPECT_STREQ(prof::phase_name(prof::Phase::shuffle_all2all),
               "shuffle_all2all");
  EXPECT_STREQ(prof::phase_name(prof::Phase::not_hidden_sync),
               "not_hidden_sync");
  EXPECT_STREQ(prof::phase_name(prof::Phase::write_contig), "write_contig");
  EXPECT_STREQ(prof::phase_name(prof::Phase::post_write), "post_write");
}

TEST(Report, RunReportStructure) {
  const PhaseTotals totals(1);
  MetricsRegistry metrics;
  metrics.counter("cache.writes").add(7);

  RunReportInputs inputs;
  inputs.config.emplace_back("combo", "8_4m");
  inputs.config.emplace_back("hint.e10_cache", "enable");
  inputs.phases = &totals;
  inputs.metrics = &metrics;
  inputs.derived["perceived_bandwidth_gib"] = 1.5;

  const Json report = run_report_json(inputs);
  EXPECT_EQ(report.at("config").at("combo").as_string(), "8_4m");
  EXPECT_EQ(report.at("config").at("hint.e10_cache").as_string(), "enable");
  EXPECT_EQ(report.at("metrics").at("counters").at("cache.writes").as_int(),
            7);
  EXPECT_TRUE(report.at("phases").find("write_contig") != nullptr);
  EXPECT_DOUBLE_EQ(
      report.at("derived").at("perceived_bandwidth_gib").as_number(), 1.5);

  // The dump parses back (the CI smoke test relies on this).
  EXPECT_TRUE(Json::parse(report.dump(2)).is_ok());
}

TEST(Report, FlushOverlapRatio) {
  PhaseTotals totals(2);
  MetricsRegistry metrics;

  // No sync work at all: ratio is 0 by definition.
  EXPECT_DOUBLE_EQ(flush_overlap_ratio(metrics, totals), 0.0);

  // 10 s of sync work; rank 0 visibly waited 2 s on its grequests, rank 1
  // 0.5 s => hidden = 10 - 2.5 = 7.5 => ratio 0.75. not_hidden_sync (the
  // collective-close time) must not enter the ratio.
  metrics.counter(names::kSyncBusyNs).add(seconds(10));
  at(totals, 0, prof::Phase::flush_wait) = seconds(2);
  at(totals, 0, prof::Phase::not_hidden_sync) = seconds(3);
  at(totals, 1, prof::Phase::flush_wait) = milliseconds(500);
  at(totals, 1, prof::Phase::not_hidden_sync) = seconds(3);
  EXPECT_DOUBLE_EQ(flush_overlap_ratio(metrics, totals), 0.75);

  // Visible wait above the busy total clamps to 0, never negative.
  at(totals, 1, prof::Phase::flush_wait) += seconds(20);
  EXPECT_DOUBLE_EQ(flush_overlap_ratio(metrics, totals), 0.0);
}

TEST(Report, WriteJsonFileRoundTrips) {
  Json doc = Json::object();
  doc.set("answer", Json::integer(42));
  const std::string path = ::testing::TempDir() + "e10_report_test.json";
  ASSERT_TRUE(write_json_file(path, doc).is_ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto parsed = Json::parse(buffer.str());
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().at("answer").as_int(), 42);
  std::remove(path.c_str());

  EXPECT_FALSE(write_json_file("/nonexistent-dir/x.json", doc).is_ok());
}

}  // namespace
}  // namespace e10::obs

#include "prof/profiler.h"

#include <gtest/gtest.h>

#include "common/units.h"

namespace e10::prof {
namespace {

using namespace e10::units;

TEST(Profiler, RecordsAndAggregates) {
  sim::Engine engine;
  Profiler profiler(engine, 4);
  profiler.record(0, Phase::write_contig, seconds(2));
  profiler.record(1, Phase::write_contig, seconds(5));
  profiler.record(1, Phase::write_contig, seconds(1));  // accumulates
  profiler.record(2, Phase::exchange, seconds(3));
  EXPECT_EQ(profiler.rank_total(1, Phase::write_contig), seconds(6));
  EXPECT_EQ(profiler.max_over_ranks(Phase::write_contig), seconds(6));
  EXPECT_EQ(profiler.avg_over_ranks(Phase::write_contig), seconds(2));
  EXPECT_EQ(profiler.max_over_ranks(Phase::exchange), seconds(3));
  EXPECT_EQ(profiler.max_over_ranks(Phase::flush_wait), 0);
}

TEST(Profiler, ScopeMeasuresVirtualTime) {
  sim::Engine engine;
  Profiler profiler(engine, 1);
  engine.spawn("p", [&] {
    const auto scope = profiler.scope(0, Phase::shuffle_all2all);
    engine.delay(milliseconds(250));
  });
  engine.run();
  EXPECT_EQ(profiler.rank_total(0, Phase::shuffle_all2all),
            milliseconds(250));
}

TEST(Profiler, NestedScopesBothRecord) {
  sim::Engine engine;
  Profiler profiler(engine, 1);
  engine.spawn("p", [&] {
    const auto outer = profiler.scope(0, Phase::exchange);
    engine.delay(milliseconds(10));
    {
      const auto inner = profiler.scope(0, Phase::write_contig);
      engine.delay(milliseconds(5));
    }
    engine.delay(milliseconds(10));
  });
  engine.run();
  EXPECT_EQ(profiler.rank_total(0, Phase::write_contig), milliseconds(5));
  EXPECT_EQ(profiler.rank_total(0, Phase::exchange), milliseconds(25));
}

TEST(Profiler, MinAndPercentilesOverRanks) {
  sim::Engine engine;
  Profiler profiler(engine, 4);
  // Rank totals: 1s, 2s, 3s, 4s.
  for (int r = 0; r < 4; ++r) {
    profiler.record(r, Phase::exchange, seconds(r + 1));
  }
  EXPECT_EQ(profiler.min_over_ranks(Phase::exchange), seconds(1));
  // Nearest-rank: index = ceil(q * n) - 1 over the sorted totals.
  EXPECT_EQ(profiler.percentile_over_ranks(Phase::exchange, 0.5), seconds(2));
  EXPECT_EQ(profiler.percentile_over_ranks(Phase::exchange, 0.95), seconds(4));
  EXPECT_EQ(profiler.percentile_over_ranks(Phase::exchange, 0.99), seconds(4));
  EXPECT_EQ(profiler.percentile_over_ranks(Phase::exchange, 0.0), seconds(1));
  EXPECT_EQ(profiler.percentile_over_ranks(Phase::exchange, 1.0), seconds(4));
  // Untouched phase: all aggregates are zero.
  EXPECT_EQ(profiler.min_over_ranks(Phase::calc), 0);
  EXPECT_EQ(profiler.percentile_over_ranks(Phase::calc, 0.5), 0);
  EXPECT_THROW(profiler.percentile_over_ranks(Phase::exchange, -0.1),
               std::logic_error);
  EXPECT_THROW(profiler.percentile_over_ranks(Phase::exchange, 1.1),
               std::logic_error);
}

TEST(Profiler, InvalidArgumentsThrow) {
  sim::Engine engine;
  EXPECT_THROW(Profiler(engine, 0), std::logic_error);
  Profiler profiler(engine, 2);
  EXPECT_THROW(profiler.record(2, Phase::close, 1), std::logic_error);
  EXPECT_THROW(profiler.record(-1, Phase::close, 1), std::logic_error);
  EXPECT_THROW(profiler.record(0, Phase::close, -1), std::logic_error);
}

TEST(Profiler, PhaseNamesAreStable) {
  // The bench output parses/prints these; keep them fixed.
  EXPECT_STREQ(phase_name(Phase::shuffle_all2all), "shuffle_all2all");
  EXPECT_STREQ(phase_name(Phase::not_hidden_sync), "not_hidden_sync");
  EXPECT_STREQ(phase_name(Phase::write_contig), "write_contig");
  EXPECT_STREQ(phase_name(Phase::post_write), "post_write");
}

}  // namespace
}  // namespace e10::prof

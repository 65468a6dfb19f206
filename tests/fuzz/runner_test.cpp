#include "fuzz/runner.h"

#include <gtest/gtest.h>

#include "common/units.h"

namespace e10::fuzz {
namespace {

using namespace e10::units;

/// A small hand-built scenario: 2 nodes x 1 rank, one call, cached.
Scenario small_scenario() {
  Scenario s;
  s.seed = 11;
  s.nodes = 2;
  s.ranks_per_node = 1;
  s.file_bytes = 256 * KiB;
  s.calls = 1;
  s.cache = "enable";
  s.cb_buffer = 256 * KiB;
  return s;
}

TEST(RunnerTest, CleanScenarioPassesAllOracles) {
  const RunResult result = run_scenario(small_scenario());
  EXPECT_TRUE(result.ok()) << result.violations_text();
  EXPECT_TRUE(result.report.all_ok);
  EXPECT_FALSE(result.report.stopped);
  EXPECT_GT(result.report.extent_end, 0);
  EXPECT_EQ(result.report.races, 0u);
  EXPECT_EQ(result.report.cycles, 0u);
}

TEST(RunnerTest, UncachedScenarioPassesToo) {
  Scenario s = small_scenario();
  s.cache = "disable";
  const RunResult result = run_scenario(s);
  EXPECT_TRUE(result.ok()) << result.violations_text();
}

TEST(RunnerTest, KnownBugIsCaughtByByteOracle) {
  Scenario s = small_scenario();
  s.bug = BugKind::drop_extent;
  RunOptions options;
  options.cross_check_hints = false;
  const RunResult result = run_scenario(s, options);
  ASSERT_FALSE(result.ok());
  bool byte_violation = false;
  for (const OracleViolation& v : result.violations) {
    byte_violation |= v.oracle == "byte_equality";
  }
  EXPECT_TRUE(byte_violation) << result.violations_text();
  // The run itself looks healthy — the loss is silent; only the reference
  // model comparison notices. That is the point of the oracle.
  EXPECT_TRUE(result.report.all_ok);
}

TEST(RunnerTest, CrashPointStopsRunAndRecoveryVerifies) {
  Scenario s = small_scenario();
  s.journal_hint = true;
  s.flush = "flush_onclose";  // maximize dirty cached data at the kill
  s.crash_frac = 0.5;
  const RunResult result = run_scenario(s);
  EXPECT_TRUE(result.report.stopped);
  EXPECT_GT(result.report.crash_at, 0);
  EXPECT_TRUE(result.ok()) << result.violations_text();
  // The recovery pass and the journal byte oracle found the ranks' cache
  // files under the names open_coll gave them: neither passed vacuously.
  EXPECT_GT(result.report.recovered_extents, 0u);
  EXPECT_GT(result.report.journal_extents_checked, 0u);
}

TEST(RunnerTest, ExplicitCrashTimeWinsOverFraction) {
  Scenario s = small_scenario();
  s.journal_hint = true;
  s.crash_at = milliseconds(2);
  s.crash_frac = 0.99;  // must be ignored
  const RunResult result = run_scenario(s);
  EXPECT_TRUE(result.report.stopped);
  EXPECT_EQ(result.report.crash_at, milliseconds(2));
  EXPECT_TRUE(result.ok()) << result.violations_text();
}

TEST(RunnerTest, FaultedScenarioUpholdsNoGarbageInvariant) {
  Scenario s = small_scenario();
  // Aggressive transient faults: some collectives will surface errors, but
  // nothing in the file may ever mismatch the reference content.
  s.fault_spec = "pfs_write=20%/io_error;lfs_write=20%/io_error;seed=3";
  const RunResult result = run_scenario(s);
  EXPECT_TRUE(result.ok()) << result.violations_text();
}

TEST(RunnerTest, BadFaultSpecSurfacesAsEngineViolation) {
  Scenario s = small_scenario();
  s.fault_spec = "not-a-plan~~";
  const RunResult result = run_scenario(s);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.violations.front().oracle, "engine");
}

TEST(RunnerTest, ProbeEndTimeIsPositiveAndIgnoresCrash) {
  Scenario s = small_scenario();
  s.crash_frac = 0.5;
  const Time end = probe_end_time(s);
  EXPECT_GT(end, 0);
}

TEST(RunnerTest, GeneratedScenariosPassAcrossSeeds) {
  ScenarioLimits limits;
  limits.max_nodes = 2;
  limits.max_ranks_per_node = 2;
  limits.max_file_bytes = 512 * KiB;
  limits.max_calls = 2;
  for (std::uint64_t seed = 100; seed < 106; ++seed) {
    const Scenario s =
        Scenario::generate(seed, limits, /*want_crash=*/seed % 2 == 0);
    const RunResult result = run_scenario(s);
    EXPECT_TRUE(result.ok())
        << "seed " << seed << ":\n" << result.violations_text();
  }
}

}  // namespace
}  // namespace e10::fuzz

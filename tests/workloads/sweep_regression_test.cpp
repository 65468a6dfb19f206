// Virtual-time regression lock: a miniature paper sweep whose exact
// virtual-time results are pinned as golden constants.
//
// The DES engine's determinism contract says scheduler/data-structure
// optimizations must never change simulated results — only host time. The
// bench-level identity diffs (results/BENCH_engine.json) enforce that
// against the previous commit at 512 ranks; this test enforces it forever
// at unit scale: any change to the scheduler, the collective write path,
// the cache or the PFS model that shifts virtual time or output bytes by
// even one unit fails a golden row below.
//
// To regenerate after an *intentional* model change, run with
//   E10_PRINT_GOLDEN=1 ./workloads_test --gtest_filter='SweepRegression.*'
// and paste the printed table over kGolden.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/units.h"
#include "workloads/experiment.h"
#include "workloads/workload.h"

namespace e10::workloads {
namespace {

using namespace e10::units;

struct GoldenRow {
  int aggregators;
  Offset cb_buffer;
  CacheCase cache_case;
  Time io_time;           // exact virtual nanoseconds
  const char* checksum;   // exact output-content fingerprint
  std::uint64_t events;   // scheduler pops — the engine-level invariant
};

// 3 aggregator counts x 2 buffer sizes x 3 cache cases at small_testbed
// scale (8 ranks, 2 servers, jitter off). Values produced by the flat
// ReadyQueue/ExtentMap/ByteStore implementation and verified byte-identical
// to the seed std::map scheduler's full-sweep reports.
constexpr GoldenRow kGolden[] = {
    {2, 64 * KiB, CacheCase::disabled, 2844197, "169560a983cd5a04", 301},
    {2, 256 * KiB, CacheCase::disabled, 2748403, "169560a983cd5a04", 236},
    {4, 64 * KiB, CacheCase::disabled, 2863049, "169560a983cd5a04", 277},
    {4, 256 * KiB, CacheCase::disabled, 2638995, "169560a983cd5a04", 248},
    {8, 64 * KiB, CacheCase::disabled, 2863049, "169560a983cd5a04", 277},
    {8, 256 * KiB, CacheCase::disabled, 2638995, "169560a983cd5a04", 248},
    {2, 64 * KiB, CacheCase::enabled, 18869445, "169560a983cd5a04", 404},
    {2, 256 * KiB, CacheCase::enabled, 3961843, "169560a983cd5a04", 324},
    {4, 64 * KiB, CacheCase::enabled, 30371591, "169560a983cd5a04", 380},
    {4, 256 * KiB, CacheCase::enabled, 12612815, "169560a983cd5a04", 347},
    {8, 64 * KiB, CacheCase::enabled, 30371591, "169560a983cd5a04", 380},
    {8, 256 * KiB, CacheCase::enabled, 12612815, "169560a983cd5a04", 347},
    // The theoretical case never flushes, so no byte reaches the PFS: its
    // global files stay empty, one fingerprint unlike the flushed cases'.
    {2, 64 * KiB, CacheCase::theoretical, 3834093, "9c15e867730a4f72", 388},
    {2, 256 * KiB, CacheCase::theoretical, 3961843, "9c15e867730a4f72", 316},
    {4, 64 * KiB, CacheCase::theoretical, 3098801, "9c15e867730a4f72", 364},
    {4, 256 * KiB, CacheCase::theoretical, 3098803, "9c15e867730a4f72", 336},
    {8, 64 * KiB, CacheCase::theoretical, 3098801, "9c15e867730a4f72", 364},
    {8, 256 * KiB, CacheCase::theoretical, 3098803, "9c15e867730a4f72", 336},
};

ExperimentResult run_row(const GoldenRow& row) {
  ExperimentSpec spec;
  spec.testbed = small_testbed();
  spec.aggregators = row.aggregators;
  spec.cb_buffer_size = row.cb_buffer;
  spec.cache_case = row.cache_case;
  spec.workflow.base_path = "/pfs/sweep_reg";
  spec.workflow.num_files = 2;
  spec.workflow.compute_delay = milliseconds(10);
  spec.workflow.include_last_phase = false;
  return run_experiment(spec, [](const TestbedParams&) {
    CollPerfWorkload::Params params;
    params.grid = {2, 2, 2};
    params.block = {2, 4, 1024};  // 64 KiB per rank
    params.elem_bytes = 8;
    return std::make_unique<CollPerfWorkload>(params);
  });
}

TEST(SweepRegression, VirtualTimesAndContentAreBitIdentical) {
  const bool print = std::getenv("E10_PRINT_GOLDEN") != nullptr;
  for (const GoldenRow& row : kGolden) {
    const ExperimentResult result = run_row(row);
    if (print) {
      std::fprintf(
          stderr, "    {%d, %lld * KiB, CacheCase::%s, %lld, \"%s\", %llu},\n",
          row.aggregators, static_cast<long long>(row.cb_buffer / KiB),
          row.cache_case == CacheCase::disabled
              ? "disabled"
              : (row.cache_case == CacheCase::enabled ? "enabled"
                                                      : "theoretical"),
          static_cast<long long>(result.workflow.io_time),
          result.content_checksum.c_str(),
          static_cast<unsigned long long>(result.engine_stats.events));
      continue;
    }
    const std::string label = result.combo + "/" + to_string(row.cache_case);
    EXPECT_EQ(result.workflow.io_time, row.io_time) << label;
    EXPECT_EQ(result.content_checksum, row.checksum) << label;
    EXPECT_EQ(result.engine_stats.events, row.events) << label;
  }
}

TEST(SweepRegression, RepeatedRunsAreIdentical) {
  // Same spec twice in one process: every deterministic output — virtual
  // io time, content fingerprint, scheduler counters — must agree exactly.
  const GoldenRow& row = kGolden[7];  // cache enabled, mid-size buffer
  const ExperimentResult a = run_row(row);
  const ExperimentResult b = run_row(row);
  EXPECT_EQ(a.workflow.io_time, b.workflow.io_time);
  EXPECT_EQ(a.workflow.total_bytes, b.workflow.total_bytes);
  EXPECT_EQ(a.content_checksum, b.content_checksum);
  EXPECT_EQ(a.engine_stats.events, b.engine_stats.events);
  EXPECT_EQ(a.engine_stats.switches, b.engine_stats.switches);
  EXPECT_EQ(a.engine_stats.spawned, b.engine_stats.spawned);
  EXPECT_EQ(a.engine_stats.max_ready_depth, b.engine_stats.max_ready_depth);
}

}  // namespace
}  // namespace e10::workloads

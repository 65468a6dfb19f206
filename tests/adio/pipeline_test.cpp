// WritePipeline end-to-end tests: pipelined vs synchronous collective
// writes must produce byte-identical files, the pipelined run must never be
// slower in virtual time, and the pipeline's shared state must stay clean
// under the concurrency checker. Plus OverlapAccumulator unit tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/checker.h"
#include "common/units.h"
#include "mpiio/file.h"
#include "sim/async.h"
#include "support/quick_point.h"
#include "workloads/testbed.h"

namespace e10::adio {
namespace {

using namespace e10::units;
using mpiio::File;
using workloads::CacheCase;
using workloads::ExperimentSpec;
using workloads::Platform;
using workloads::small_testbed;

mpi::Info coll_info(bool pipelined, bool cached = false) {
  mpi::Info info;
  info.set("romio_cb_write", "enable");
  info.set("cb_buffer_size", "262144");  // 256 KiB: forces several rounds
  info.set("e10_pipeline_flag", pipelined ? "enable" : "disable");
  if (cached) {
    info.set("e10_cache", "enable");
    info.set("e10_cache_path", "/scratch");
    info.set("e10_cache_flush_flag", "flush_immediate");
    info.set("e10_cache_discard_flag", "enable");
  }
  return info;
}

void expect_matches(const pfs::Pfs& pfs, const std::string& path,
                    const ByteStore& reference) {
  const ByteStore* actual = pfs.peek(path);
  ASSERT_NE(actual, nullptr) << path;
  ASSERT_EQ(actual->extent_end(), reference.extent_end());
  const Offset end = reference.extent_end();
  const Offset step = std::max<Offset>(1, end / 997);
  for (Offset pos = 0; pos < end; pos += step) {
    ASSERT_EQ(actual->byte_at(pos), reference.byte_at(pos)) << "pos " << pos;
  }
  ASSERT_EQ(actual->byte_at(end - 1), reference.byte_at(end - 1));
}

/// Runs one round-robin interleaved collective write and returns the
/// virtual completion time (max over ranks at close).
Time run_interleaved(Platform& p, const std::string& path,
                     const mpi::Info& info, Offset block, int blocks) {
  Time completed = 0;
  p.launch([&, info, path, block, blocks](mpi::Comm comm) {
    auto file =
        File::open(p.ctx, comm, path, amode::create | amode::rdwr, info);
    ASSERT_TRUE(file.is_ok());
    std::vector<mpi::IoPiece> pieces;
    for (int b = 0; b < blocks; ++b) {
      const Offset off = (b * comm.size() + comm.rank()) * block;
      pieces.push_back(mpi::IoPiece{Extent{off, block},
                                    DataView::synthetic(42, off, block)});
    }
    ASSERT_TRUE(write_strided_coll(*file.value().raw(), pieces));
    ASSERT_TRUE(file.value().close());
    completed = std::max(completed, p.ctx.engine.now());
  });
  p.run();
  return completed;
}

ByteStore interleaved_reference(int ranks, Offset block, int blocks) {
  ByteStore reference;
  for (int r = 0; r < ranks; ++r) {
    for (int b = 0; b < blocks; ++b) {
      const Offset off = (b * ranks + r) * block;
      reference.write(off, DataView::synthetic(42, off, block));
    }
  }
  return reference;
}

TEST(WritePipeline_, PipelinedContentMatchesSynchronous) {
  constexpr Offset kBlock = 64 * KiB;
  constexpr int kBlocks = 16;  // several rounds at 256 KiB cb
  Platform on(small_testbed());
  Platform off(small_testbed());
  const ByteStore reference =
      interleaved_reference(on.ranks(), kBlock, kBlocks);
  run_interleaved(on, "/pfs/pipe_on", coll_info(true), kBlock, kBlocks);
  run_interleaved(off, "/pfs/pipe_off", coll_info(false), kBlock, kBlocks);
  expect_matches(on.pfs, "/pfs/pipe_on", reference);
  expect_matches(off.pfs, "/pfs/pipe_off", reference);
}

// Regression for the fuzzer-caught crash-point terminate (docs/fuzzing.md):
// a stop_at() cancels every fiber mid-collective, so ~WritePipeline runs
// during ProcessCancelled unwinding with rounds still in flight. The
// destructor must not drain (block) then — blocking rethrows the
// cancellation inside a noexcept context and aborts the whole binary.
// e10_lint's unwind-blocking rule pins the guarded destructor statically;
// this pins the runtime behavior. Crash times sweep the run so at least
// one lands inside the pipelined exchange regardless of phase timing.
TEST(WritePipeline_, CrashMidWriteUnwindsWithoutTerminating) {
  constexpr Offset kBlock = 64 * KiB;
  constexpr int kBlocks = 16;
  Time end = 0;
  {
    Platform clean(small_testbed());
    end = run_interleaved(clean, "/pfs/unwind", coll_info(true), kBlock,
                          kBlocks);
  }
  ASSERT_GT(end, 0);
  for (int eighth = 1; eighth < 8; ++eighth) {
    Platform p(small_testbed());
    p.engine.stop_at(end * eighth / 8);
    run_interleaved(p, "/pfs/unwind", coll_info(true), kBlock, kBlocks);
    EXPECT_TRUE(p.engine.stopped()) << "crash point " << eighth << "/8";
  }
}

TEST(WritePipeline_, PipelinedIsNeverSlowerThanSynchronous) {
  constexpr Offset kBlock = 64 * KiB;
  constexpr int kBlocks = 16;
  Platform on(small_testbed());
  Platform off(small_testbed());
  const Time t_on =
      run_interleaved(on, "/pfs/t_on", coll_info(true), kBlock, kBlocks);
  const Time t_off =
      run_interleaved(off, "/pfs/t_off", coll_info(false), kBlock, kBlocks);
  EXPECT_LE(t_on, t_off);

  // The quick sweep's 4_16m point, cache disabled and enabled: the same
  // bytes, never slower, and the pipelined run stays race- and cycle-free.
  for (const CacheCase cache_case :
       {CacheCase::disabled, CacheCase::enabled}) {
    ExperimentSpec pipelined =
        workloads::quick_collperf_spec(4, 16 * MiB, cache_case, 2);
    ExperimentSpec synchronous = pipelined;
    synchronous.pipeline = false;
    pipelined.check_concurrency = true;
    const auto fast = run_experiment(pipelined, workloads::quick_collperf());
    const auto slow = run_experiment(synchronous, workloads::quick_collperf());
    const char* where = workloads::to_string(cache_case);
    EXPECT_EQ(fast.content_checksum, slow.content_checksum) << where;
    EXPECT_LE(fast.workflow.io_time, slow.workflow.io_time) << where;
    EXPECT_EQ(fast.analysis_races, 0u) << where;
    EXPECT_EQ(fast.analysis_cycles, 0u) << where;
  }
}

TEST(WritePipeline_, SingleRoundDegeneratesToSynchronous) {
  // One block per rank fits a single round: with nothing to overlap, the
  // pipelined schedule must equal the synchronous one exactly.
  constexpr Offset kBlock = 8 * KiB;
  Platform on(small_testbed());
  Platform off(small_testbed());
  const Time t_on =
      run_interleaved(on, "/pfs/one_on", coll_info(true), kBlock, 1);
  const Time t_off =
      run_interleaved(off, "/pfs/one_off", coll_info(false), kBlock, 1);
  EXPECT_EQ(t_on, t_off);
  expect_matches(on.pfs, "/pfs/one_on",
                 interleaved_reference(on.ranks(), kBlock, 1));
}

TEST(WritePipeline_, CachedPipelinedContentMatchesSynchronous) {
  // Through the cache tier (write to local cache + async flush to the
  // global file) the pipelined path must still land identical bytes.
  constexpr Offset kBlock = 64 * KiB;
  constexpr int kBlocks = 8;
  Platform on(small_testbed());
  Platform off(small_testbed());
  const ByteStore reference =
      interleaved_reference(on.ranks(), kBlock, kBlocks);
  const Time t_on = run_interleaved(on, "/pfs/cpipe_on",
                                    coll_info(true, true), kBlock, kBlocks);
  const Time t_off = run_interleaved(off, "/pfs/cpipe_off",
                                     coll_info(false, true), kBlock, kBlocks);
  expect_matches(on.pfs, "/pfs/cpipe_on", reference);
  expect_matches(off.pfs, "/pfs/cpipe_off", reference);
  // Tolerance: the cached path ends on background-flush completions whose
  // virtual-time arithmetic rounds per advance point, so the two schedules
  // can differ by a few ns without either being slower in any real sense.
  EXPECT_LE(t_on, t_off + units::microseconds(1));
}

TEST(WritePipeline_, PipelineOverlapIsObserved) {
  Platform p(small_testbed());
  constexpr Offset kBlock = 64 * KiB;
  run_interleaved(p, "/pfs/pipe_obs", coll_info(true), kBlock, 16);
  namespace names = obs::names;
  const std::int64_t writes = p.metrics.counter_value(names::kPipelineWrites);
  const std::int64_t write_ns =
      p.metrics.counter_value(names::kPipelineWriteNs);
  const std::int64_t hidden_ns =
      p.metrics.counter_value(names::kPipelineHiddenNs);
  const std::int64_t stall_ns =
      p.metrics.counter_value(names::kPipelineStallNs);
  EXPECT_GT(writes, 0);
  EXPECT_GT(write_ns, 0);
  EXPECT_EQ(hidden_ns + stall_ns, write_ns);
  EXPECT_GT(hidden_ns, 0);  // multi-round: something must overlap
}

TEST(WritePipeline_, CheckerFindsNoRacesInPipelinedWrites) {
  Platform p(small_testbed());
  analysis::ConcurrencyChecker checker(p.engine);
  run_interleaved(p, "/pfs/pipe_chk", coll_info(true, true), 64 * KiB, 8);
  const analysis::AnalysisSummary summary = checker.summary();
  EXPECT_EQ(summary.races.size(), 0u);
  EXPECT_EQ(summary.cycles.size(), 0u);
  EXPECT_GT(summary.shared_accesses, 0u);

  // The quick sweep's 4_4m point in all three cache cases. Cache-disabled
  // runs have no instrumented state; the cached runs do.
  std::size_t shared_accesses = 0;
  for (const CacheCase cache_case :
       {CacheCase::disabled, CacheCase::enabled, CacheCase::theoretical}) {
    ExperimentSpec spec =
        workloads::quick_collperf_spec(4, 4 * MiB, cache_case, 1);
    spec.check_concurrency = true;
    const auto result = run_experiment(spec, workloads::quick_collperf());
    EXPECT_TRUE(result.report.at("analysis").at("enabled").as_bool());
    EXPECT_EQ(result.analysis_races, 0u) << workloads::to_string(cache_case);
    EXPECT_EQ(result.analysis_cycles, 0u) << workloads::to_string(cache_case);
    shared_accesses += result.analysis_shared_accesses;
  }
  EXPECT_GT(shared_accesses, 0u);
}

TEST(OverlapAccumulator_, FullyHiddenJoin) {
  sim::OverlapAccumulator acc;
  // Write issued at 100, done at 200, joined at 250: fully hidden.
  const sim::JoinOutcome outcome = acc.on_join(100, 200, 250);
  EXPECT_EQ(outcome.hidden, 100);
  EXPECT_EQ(outcome.stall, 0);
  EXPECT_EQ(acc.joins(), 1u);
  EXPECT_EQ(acc.stalls(), 0u);
  EXPECT_DOUBLE_EQ(acc.overlap_ratio(), 1.0);
}

TEST(OverlapAccumulator_, PartialStall) {
  sim::OverlapAccumulator acc;
  // Joined at 150, write completes at 200: 50 hidden, 50 stalled.
  const sim::JoinOutcome outcome = acc.on_join(100, 200, 150);
  EXPECT_EQ(outcome.hidden, 50);
  EXPECT_EQ(outcome.stall, 50);
  EXPECT_EQ(acc.stalls(), 1u);
  EXPECT_DOUBLE_EQ(acc.overlap_ratio(), 0.5);
  EXPECT_EQ(acc.service_time(), 100);
  EXPECT_EQ(acc.hidden_time(), 50);
  EXPECT_EQ(acc.stall_time(), 50);
}

TEST(OverlapAccumulator_, ImmediateJoinHidesNothing) {
  sim::OverlapAccumulator acc;
  const sim::JoinOutcome outcome = acc.on_join(100, 200, 100);
  EXPECT_EQ(outcome.hidden, 0);
  EXPECT_EQ(outcome.stall, 100);
  EXPECT_DOUBLE_EQ(acc.overlap_ratio(), 0.0);
}

TEST(OverlapAccumulator_, EmptyAccumulatorHasZeroRatio) {
  const sim::OverlapAccumulator acc;
  EXPECT_DOUBLE_EQ(acc.overlap_ratio(), 0.0);
  EXPECT_EQ(acc.joins(), 0u);
}

}  // namespace
}  // namespace e10::adio

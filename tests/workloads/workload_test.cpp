#include "workloads/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>

#include "adio/adio_file.h"
#include "common/units.h"
#include "mpiio/file.h"
#include "obs/report.h"
#include "support/quick_point.h"
#include "workloads/experiment.h"
#include "workloads/testbed.h"
#include "workloads/workflow.h"

namespace e10::workloads {
namespace {

using namespace e10::units;

// Shrunken workload shapes so the unit tests stay fast.
CollPerfWorkload::Params tiny_collperf() {
  CollPerfWorkload::Params params;
  params.grid = {2, 2, 2};
  params.block = {2, 4, 4096};  // 256 KiB per rank
  params.elem_bytes = 8;
  return params;
}

FlashIoWorkload::Params tiny_flash() {
  FlashIoWorkload::Params params;
  params.blocks_per_proc = 4;
  params.variables = 6;
  params.chunk_bytes = 8 * KiB;
  params.header_bytes = 64 * KiB;
  return params;
}

IorWorkload::Params tiny_ior() {
  IorWorkload::Params params;
  params.block_bytes = 128 * KiB;
  params.segments = 3;
  return params;
}

mpi::Info coll_hints() {
  mpi::Info info;
  info.set("romio_cb_write", "enable");
  info.set("cb_buffer_size", "262144");
  return info;
}

template <typename WorkloadT>
Offset run_one_file(Platform& p, const WorkloadT& workload,
                    const std::string& path) {
  Offset total = 0;
  p.launch([&](mpi::Comm comm) {
    auto file = mpiio::File::open(p.ctx, comm, path,
                                  adio::amode::create | adio::amode::rdwr,
                                  coll_hints());
    ASSERT_TRUE(file.is_ok());
    ASSERT_TRUE(workload.write_file(file.value(), comm, 0));
    ASSERT_TRUE(file.value().close());
    if (comm.rank() == 0) {
      total = comm.allreduce(workload.bytes_per_rank(comm),
                             [](Offset a, Offset b) { return a + b; });
    } else {
      (void)comm.allreduce(workload.bytes_per_rank(comm),
                           [](Offset a, Offset b) { return a + b; });
    }
  });
  p.run();
  return total;
}

TEST(CollPerf, FileSizeMatchesArray) {
  Platform p(small_testbed());
  const CollPerfWorkload workload(tiny_collperf());
  const Offset total = run_one_file(p, workload, "/pfs/cp");
  EXPECT_EQ(total, 8 * 256 * KiB);
  EXPECT_EQ(p.pfs.stat_path("/pfs/cp").value().size, total);
}

TEST(CollPerf, ProducesInterleavedStridedPattern) {
  // With a 2x2x2 grid, ranks differing only in the z coordinate interleave
  // within rows: the file must not be rank-contiguous.
  Platform p(small_testbed());
  const CollPerfWorkload workload(tiny_collperf());
  (void)run_one_file(p, workload, "/pfs/cp2");
  // The shuffle exchange must have happened (interleaved -> collective).
  const obs::PhaseTotals& phases = p.tracer.phase_totals();
  EXPECT_GT(obs::max_over_ranks(phases, prof::Phase::exchange), 0);
  EXPECT_GT(obs::max_over_ranks(phases, prof::Phase::shuffle_all2all), 0);
}

TEST(CollPerf, EveryByteAccountedFor) {
  Platform p(small_testbed());
  const CollPerfWorkload workload(tiny_collperf());
  (void)run_one_file(p, workload, "/pfs/cp3");
  // No holes: every byte of the global array was written by exactly one
  // rank (subarrays partition the array).
  const ByteStore* store = p.pfs.peek("/pfs/cp3");
  ASSERT_NE(store, nullptr);
  const Offset size = p.pfs.stat_path("/pfs/cp3").value().size;
  // A hole would read zero; synthetic pattern bytes are almost never zero
  // for long runs. Sample densely.
  int zeros = 0;
  for (Offset pos = 0; pos < size; pos += 997) {
    if (store->byte_at(pos) == std::byte{0}) ++zeros;
  }
  EXPECT_LT(zeros, 12);  // ~1/256 of ~2100 samples expected by chance
}

TEST(CollPerf, GridMustMatchCommSize) {
  Platform p(small_testbed());
  CollPerfWorkload::Params params = tiny_collperf();
  params.grid = {3, 3, 3};  // 27 != 8
  const CollPerfWorkload workload(params);
  int failures = 0;
  p.launch([&](mpi::Comm comm) {
    auto file = mpiio::File::open(p.ctx, comm, "/pfs/bad",
                                  adio::amode::create | adio::amode::rdwr,
                                  coll_hints());
    ASSERT_TRUE(file.is_ok());
    const Status s = workload.write_file(file.value(), comm, 0);
    if (!s.is_ok()) ++failures;
    ASSERT_TRUE(file.value().close());
  });
  p.run();
  EXPECT_EQ(failures, p.ranks());
}

TEST(CollPerf, PaperParamsAre64MiBPerRank) {
  const auto params = collperf_paper_params(512);
  const CollPerfWorkload workload(params);
  // 4 x 16 x 131072 doubles = 64 MiB.
  sim::Engine engine;
  net::Fabric fabric(1, net::FabricParams{});
  mpi::World world(engine, fabric, mpi::Topology(1, 1));
  engine.spawn("probe", [&] {
    EXPECT_EQ(workload.bytes_per_rank(world.comm(0)), 64 * MiB);
  });
  engine.run();
  EXPECT_THROW(collperf_paper_params(100), std::logic_error);
}

TEST(FlashIo, FileSizeIncludesHeaderAndDatasets) {
  Platform p(small_testbed());
  const FlashIoWorkload workload(tiny_flash());
  const Offset total = run_one_file(p, workload, "/pfs/flash");
  // header + 6 datasets of (8 procs x 4 blocks x 8 KiB).
  const Offset expected = 64 * KiB + 6 * (8 * 4 * 8 * KiB);
  EXPECT_EQ(p.pfs.stat_path("/pfs/flash").value().size, expected);
  EXPECT_EQ(total, expected);
}

TEST(FlashIo, HeaderOnlyCountedOnRankZero) {
  Platform p(small_testbed());
  const FlashIoWorkload workload(tiny_flash());
  p.launch([&](mpi::Comm comm) {
    const Offset mine = workload.bytes_per_rank(comm);
    const Offset base = 6 * 4 * 8 * KiB;
    if (comm.rank() == 0) {
      EXPECT_EQ(mine, base + 64 * KiB);
    } else {
      EXPECT_EQ(mine, base);
    }
  });
  p.run();
}

TEST(FlashIo, DatasetContentIsPerRankPattern) {
  Platform p(small_testbed());
  const FlashIoWorkload workload(tiny_flash());
  (void)run_one_file(p, workload, "/pfs/flash2");
  const ByteStore* store = p.pfs.peek("/pfs/flash2");
  ASSERT_NE(store, nullptr);
  // Dataset 0 begins after the header; rank 1's chunks start at
  // header + 1 * blocks * chunk.
  const Offset header = 64 * KiB;
  const Offset rank1 = header + 1 * 4 * 8 * KiB;
  // Rank 1's payload stream position for dataset 0 starts at 0.
  EXPECT_NE(store->byte_at(rank1), std::byte{0});
}

TEST(FlashIo, QuickPointFilesHoldOneRunPerRankAndVariable) {
  // `bench_sweep flashio --quick` at 8_4m with the cache enabled: the sync
  // threads drain each global file in 7,688 interleaved flush writes, and
  // its ByteStore keeps them as merged runs, one per (rank, variable) plus
  // the header, in a log that never doubles past them.
  const ExperimentSpec spec =
      quick_flashio_spec(8, 4 * MiB, CacheCase::enabled, 2);
  Platform platform(spec.testbed);
  WorkflowParams workflow = spec.workflow;
  workflow.hints = experiment_hints(spec);
  workflow.deferred_close = true;
  const FlashIoWorkload workload;
  (void)run_workflow(platform, workload, workflow);
  const std::size_t runs = 64 * 24 + 1;
  for (int k = 0; k < workflow.num_files; ++k) {
    const ByteStore* store =
        platform.pfs.peek(workflow.base_path + "_" + std::to_string(k));
    ASSERT_NE(store, nullptr);
    EXPECT_LE(store->log_entries(),
              std::max(ByteStore::kCompactFloor, 2 * runs));
    EXPECT_EQ(store->segment_count(), runs);
  }
}

TEST(Ior, SegmentedLayout) {
  Platform p(small_testbed());
  const IorWorkload workload(tiny_ior());
  const Offset total = run_one_file(p, workload, "/pfs/ior");
  EXPECT_EQ(total, 8 * 3 * 128 * KiB);
  EXPECT_EQ(p.pfs.stat_path("/pfs/ior").value().size, total);
}

TEST(Ior, BlocksLandAtSegmentOffsets) {
  Platform p(small_testbed());
  IorWorkload::Params params = tiny_ior();
  const IorWorkload workload(params);
  (void)run_one_file(p, workload, "/pfs/ior2");
  const ByteStore* store = p.pfs.peek("/pfs/ior2");
  // Segment 1, rank 2's block starts at (1*8 + 2) * 128 KiB and carries the
  // rank-2 seed continuing at stream position 1*128 KiB.
  const Offset off = (1 * 8 + 2) * 128 * KiB;
  const std::uint64_t seed = Rng::derive(Rng::derive(0xE10, "ior"), "0:2");
  EXPECT_EQ(store->byte_at(off), DataView::pattern_byte(seed, 128 * KiB));
}

}  // namespace
}  // namespace e10::workloads

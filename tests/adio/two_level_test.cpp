// Two-level collective-write end-to-end tests (docs/two_level.md): the
// node-aware two-stage exchange must land byte-identical files against the
// flat path, e10_two_level_flag=disable must reproduce the flat schedule
// bit-for-bit (identical virtual completion time), "automatic" must key on
// the ranks-per-node threshold, and the exchange must stay clean under the
// concurrency checker.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "adio/hints.h"
#include "analysis/checker.h"
#include "common/units.h"
#include "mpiio/file.h"
#include "obs/metrics.h"
#include "workloads/testbed.h"

namespace e10::adio {
namespace {

using namespace e10::units;
using mpiio::File;
using workloads::Platform;
using workloads::small_testbed;
using workloads::TestbedParams;

mpi::Info coll_info(const char* two_level, bool cached = false) {
  mpi::Info info;
  info.set("romio_cb_write", "enable");
  info.set("cb_buffer_size", "262144");  // 256 KiB: forces several rounds
  info.set("cb_nodes", "4");
  info.set("e10_two_level_flag", two_level);
  if (cached) {
    info.set("e10_cache", "enable");
    info.set("e10_cache_path", "/scratch");
    info.set("e10_cache_flush_flag", "flush_immediate");
    info.set("e10_cache_discard_flag", "enable");
  }
  return info;
}

/// 2 nodes x 8 ranks: at the e10_two_level_flag=automatic threshold.
TestbedParams dense_testbed() {
  TestbedParams params = small_testbed();
  params.compute_nodes = 2;
  params.ranks_per_node = 8;
  return params;
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

/// The communicator a rank writes through, derived from its world one.
using DeriveComm = mpi::Comm (*)(const mpi::Comm&);

/// Runs one round-robin interleaved collective write and returns the
/// virtual completion time (max over ranks at close).
Time run_interleaved(Platform& p, const std::string& path,
                     const mpi::Info& info, Offset block, int blocks,
                     DeriveComm derive = nullptr) {
  Time completed = 0;
  p.launch([&, info, path, block, blocks, derive](mpi::Comm world) {
    const mpi::Comm comm = derive != nullptr ? derive(world) : world;
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

/// dense_testbed's world split so that new rank k sits on node k % 2: the
/// node groups interleave in rank order.
mpi::Comm interleave_nodes(const mpi::Comm& world) {
  return world.split(0, (world.rank() % 8) * 2 + world.rank() / 8);
}

TEST(TwoLevel, ContentMatchesFlat) {
  constexpr Offset kBlock = 64 * KiB;
  constexpr int kBlocks = 16;  // several rounds at 256 KiB cb
  struct Input {
    const char* name;
    TestbedParams testbed;
    DeriveComm derive;
  };
  const Input inputs[] = {
      {"world", small_testbed(), nullptr},
      {"interleaved split", dense_testbed(), interleave_nodes},
  };
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.name);
    Platform on(input.testbed);
    Platform off(input.testbed);
    const ByteStore reference =
        interleaved_reference(on.ranks(), kBlock, kBlocks);
    run_interleaved(on, "/pfs/two_on", coll_info("enable"), kBlock, kBlocks,
                    input.derive);
    run_interleaved(off, "/pfs/two_off", coll_info("disable"), kBlock,
                    kBlocks, input.derive);
    expect_matches(on.pfs, "/pfs/two_on", reference);
    expect_matches(off.pfs, "/pfs/two_off", reference);
    // The two-level exchange actually engaged on the enabled run.
    namespace names = obs::names;
    EXPECT_GT(on.metrics.counter_value(names::kTwoLevelRounds), 0);
    EXPECT_EQ(off.metrics.counter_value(names::kTwoLevelRounds), 0);
  }
}

TEST(TwoLevel, CachedContentMatchesFlat) {
  // Through the cache tier (write to local cache + async flush) the
  // two-level path must still land identical bytes in the global file.
  constexpr Offset kBlock = 64 * KiB;
  constexpr int kBlocks = 8;
  Platform on(small_testbed());
  Platform off(small_testbed());
  const ByteStore reference =
      interleaved_reference(on.ranks(), kBlock, kBlocks);
  run_interleaved(on, "/pfs/ctwo_on", coll_info("enable", true), kBlock,
                  kBlocks);
  run_interleaved(off, "/pfs/ctwo_off", coll_info("disable", true), kBlock,
                  kBlocks);
  expect_matches(on.pfs, "/pfs/ctwo_on", reference);
  expect_matches(off.pfs, "/pfs/ctwo_off", reference);
}

TEST(TwoLevel, DisabledIsBitForBitFlat) {
  // With the flag off (explicitly or by default) the schedule must be the
  // flat one exactly: identical virtual completion times, not merely close.
  constexpr Offset kBlock = 64 * KiB;
  constexpr int kBlocks = 16;
  mpi::Info plain;
  plain.set("romio_cb_write", "enable");
  plain.set("cb_buffer_size", "262144");
  plain.set("cb_nodes", "4");
  Platform off(small_testbed());
  Platform unset(small_testbed());
  const Time t_off =
      run_interleaved(off, "/pfs/flat_a", coll_info("disable"), kBlock,
                      kBlocks);
  const Time t_unset =
      run_interleaved(unset, "/pfs/flat_b", plain, kBlock, kBlocks);
  EXPECT_EQ(t_off, t_unset);
}

TEST(TwoLevel, AutomaticKeysOnRanksPerNode) {
  constexpr Offset kBlock = 64 * KiB;
  constexpr int kBlocks = 16;
  namespace names = obs::names;
  // small_testbed: 2 ranks per node, below the threshold — automatic must
  // keep the flat exchange (schedule identical to disable).
  Platform sparse_auto(small_testbed());
  Platform sparse_off(small_testbed());
  const Time t_auto = run_interleaved(sparse_auto, "/pfs/auto_lo",
                                      coll_info("automatic"), kBlock, kBlocks);
  const Time t_off = run_interleaved(sparse_off, "/pfs/off_lo",
                                     coll_info("disable"), kBlock, kBlocks);
  EXPECT_EQ(t_auto, t_off);
  EXPECT_EQ(sparse_auto.metrics.counter_value(names::kTwoLevelRounds), 0);

  // dense_testbed: 8 ranks per node = kTwoLevelAutoRanksPerNode — automatic
  // must engage the two-level exchange.
  static_assert(Hints::kTwoLevelAutoRanksPerNode == 8,
                "dense_testbed tracks the automatic threshold");
  Platform dense(dense_testbed());
  const ByteStore reference =
      interleaved_reference(dense.ranks(), kBlock, kBlocks);
  run_interleaved(dense, "/pfs/auto_hi", coll_info("automatic"), kBlock,
                  kBlocks);
  expect_matches(dense.pfs, "/pfs/auto_hi", reference);
  EXPECT_GT(dense.metrics.counter_value(names::kTwoLevelRounds), 0);
  EXPECT_GT(dense.metrics.counter_value(names::kTwoLevelIntraBytes), 0);
  EXPECT_GT(dense.metrics.counter_value(names::kTwoLevelInterBytes), 0);
}

TEST(TwoLevel, CheckerFindsNoRacesInTwoLevelWrites) {
  Platform p(dense_testbed());
  analysis::ConcurrencyChecker checker(p.engine);
  run_interleaved(p, "/pfs/two_chk", coll_info("enable", true), 64 * KiB, 8);
  const analysis::AnalysisSummary summary = checker.summary();
  EXPECT_EQ(summary.races.size(), 0u);
  EXPECT_EQ(summary.cycles.size(), 0u);
  EXPECT_GT(summary.shared_accesses, 0u);
}

}  // namespace
}  // namespace e10::adio

// End-to-end tests of the collective I/O path on the small testbed:
// byte-exact file content, collective semantics, and hint behaviour.
#include <gtest/gtest.h>

#include <vector>

#include "common/units.h"
#include "mpiio/file.h"
#include "obs/report.h"
#include "workloads/testbed.h"

namespace e10::adio {
namespace {

using namespace e10::units;
using mpiio::File;
using workloads::Platform;
using workloads::small_testbed;

mpi::Info cache_disabled() {
  mpi::Info info;
  info.set("romio_cb_write", "enable");
  info.set("cb_buffer_size", "262144");  // 256 KiB: forces several rounds
  return info;
}

/// Verifies the PFS file content byte-samples against a reference store.
void expect_matches(const pfs::Pfs& pfs, const std::string& path,
                    const ByteStore& reference) {
  const ByteStore* actual = pfs.peek(path);
  ASSERT_NE(actual, nullptr) << path;
  ASSERT_EQ(actual->extent_end(), reference.extent_end());
  const Offset end = reference.extent_end();
  const Offset step = std::max<Offset>(1, end / 997);  // ~1000 samples
  for (Offset pos = 0; pos < end; pos += step) {
    ASSERT_EQ(actual->byte_at(pos), reference.byte_at(pos)) << "pos " << pos;
  }
  ASSERT_EQ(actual->byte_at(end - 1), reference.byte_at(end - 1));
}

TEST(CollWrite, InterleavedBlocksLandExactly) {
  Platform p(small_testbed());
  ByteStore reference;
  constexpr Offset kBlock = 64 * KiB;
  constexpr int kBlocksPerRank = 8;
  // Rank r writes blocks r, r+P, r+2P, ... (round-robin interleave).
  for (int r = 0; r < p.ranks(); ++r) {
    for (int b = 0; b < kBlocksPerRank; ++b) {
      const Offset off = (b * p.ranks() + r) * kBlock;
      reference.write(off, DataView::synthetic(100 + static_cast<std::uint64_t>(r), off, kBlock));
    }
  }
  p.launch([&](mpi::Comm comm) {
    auto file = File::open(p.ctx, comm, "/pfs/interleaved",
                           amode::create | amode::rdwr, cache_disabled());
    ASSERT_TRUE(file.is_ok());
    std::vector<mpi::IoPiece> pieces;
    for (int b = 0; b < kBlocksPerRank; ++b) {
      const Offset off = (b * comm.size() + comm.rank()) * kBlock;
      pieces.push_back(mpi::IoPiece{
          Extent{off, kBlock},
          DataView::synthetic(100 + static_cast<std::uint64_t>(comm.rank()),
                              off, kBlock)});
    }
    ASSERT_TRUE(write_strided_coll(*file.value().raw(), pieces));
    ASSERT_TRUE(file.value().close());
  });
  p.run();
  expect_matches(p.pfs, "/pfs/interleaved", reference);
}

TEST(CollWrite, SubarrayViewWriteAll2D) {
  // 2-D array distributed in row bands: rank r owns rows [r*Rows, ...).
  Platform p(small_testbed());
  const Offset cols = 512, rows_per_rank = 16, elem = 8;
  const Offset total_rows = rows_per_rank * p.ranks();
  ByteStore reference;
  for (int r = 0; r < p.ranks(); ++r) {
    const Offset start = r * rows_per_rank * cols * elem;
    reference.write(start,
                    DataView::synthetic(static_cast<std::uint64_t>(r), 0,
                                        rows_per_rank * cols * elem));
  }
  p.launch([&](mpi::Comm comm) {
    auto file = File::open(p.ctx, comm, "/pfs/subarray",
                           amode::create | amode::wronly, cache_disabled());
    ASSERT_TRUE(file.is_ok());
    const auto type = mpi::FlatType::subarray(
        {total_rows, cols}, {rows_per_rank, cols},
        {comm.rank() * rows_per_rank, 0}, elem);
    ASSERT_TRUE(file.value().set_view(0, type));
    const DataView mine = DataView::synthetic(
        static_cast<std::uint64_t>(comm.rank()), 0, rows_per_rank * cols * elem);
    ASSERT_TRUE(file.value().write_all(mine));
    ASSERT_TRUE(file.value().close());
  });
  p.run();
  expect_matches(p.pfs, "/pfs/subarray", reference);
}

TEST(CollWrite, StridedColumnViewInterleavesCorrectly) {
  // Column-wise decomposition: genuinely interleaved at fine granularity.
  Platform p(small_testbed());
  const Offset cols = 64, rows = 128, elem = 8;
  const int ranks = Platform(small_testbed()).ranks();
  const Offset cols_per_rank = cols / ranks;
  ByteStore reference;
  for (int r = 0; r < ranks; ++r) {
    for (Offset row = 0; row < rows; ++row) {
      for (Offset c = 0; c < cols_per_rank; ++c) {
        const Offset file_off =
            (row * cols + r * cols_per_rank + c) * elem;
        const Offset stream = (row * cols_per_rank + c) * elem;
        reference.write(file_off,
                        DataView::synthetic(static_cast<std::uint64_t>(r),
                                            stream, elem));
      }
    }
  }
  p.launch([&](mpi::Comm comm) {
    auto file = File::open(p.ctx, comm, "/pfs/columns",
                           amode::create | amode::rdwr, cache_disabled());
    ASSERT_TRUE(file.is_ok());
    const auto type = mpi::FlatType::subarray(
        {rows, cols}, {rows, cols_per_rank},
        {0, comm.rank() * cols_per_rank}, elem);
    ASSERT_TRUE(file.value().set_view(0, type));
    ASSERT_TRUE(file.value().write_all(DataView::synthetic(
        static_cast<std::uint64_t>(comm.rank()), 0,
        rows * cols_per_rank * elem)));
    ASSERT_TRUE(file.value().close());
  });
  p.run();
  expect_matches(p.pfs, "/pfs/columns", reference);
}

TEST(CollWrite, CbNodesControlsAggregatorCount) {
  Platform p(small_testbed());
  std::vector<int> resolved(static_cast<std::size_t>(p.ranks()), -1);
  p.launch([&](mpi::Comm comm) {
    mpi::Info info = cache_disabled();
    info.set("cb_nodes", "2");
    auto file = File::open(p.ctx, comm, "/pfs/aggs",
                           amode::create | amode::rdwr, info);
    ASSERT_TRUE(file.is_ok());
    resolved[static_cast<std::size_t>(comm.rank())] =
        static_cast<int>(file.value().aggregators().size());
    EXPECT_EQ(file.value().get_info().get_or("cb_nodes", ""), "2");
    ASSERT_TRUE(file.value().close());
  });
  p.run();
  for (const int n : resolved) EXPECT_EQ(n, 2);
}

TEST(CollWrite, CollectiveReadBackMatches) {
  Platform p(small_testbed());
  constexpr Offset kBlock = 32 * KiB;
  p.launch([&](mpi::Comm comm) {
    auto file = File::open(p.ctx, comm, "/pfs/rw",
                           amode::create | amode::rdwr, cache_disabled());
    ASSERT_TRUE(file.is_ok());
    // Interleaved write, then collectively read someone else's block back.
    const Offset mine = comm.rank() * kBlock;
    ASSERT_TRUE(file.value().write_at_all(
        mine, DataView::synthetic(static_cast<std::uint64_t>(comm.rank()), 0,
                                  kBlock)));
    ASSERT_TRUE(file.value().sync());
    const int peer = (comm.rank() + 1) % comm.size();
    const auto got = file.value().read_at_all(peer * kBlock, kBlock);
    ASSERT_TRUE(got.is_ok());
    ASSERT_EQ(got.value().size(), kBlock);
    for (Offset i = 0; i < kBlock; i += 509) {
      ASSERT_EQ(got.value().byte_at(i),
                DataView::pattern_byte(static_cast<std::uint64_t>(peer), i));
    }
    ASSERT_TRUE(file.value().close());
  });
  p.run();
}

TEST(CollWrite, DisabledCbWritesIndependently) {
  Platform p(small_testbed());
  ByteStore reference;
  constexpr Offset kBlock = 16 * KiB;
  for (int r = 0; r < p.ranks(); ++r) {
    reference.write(r * kBlock,
                    DataView::synthetic(static_cast<std::uint64_t>(r), 0,
                                        kBlock));
  }
  p.launch([&](mpi::Comm comm) {
    mpi::Info info;
    info.set("romio_cb_write", "disable");
    auto file = File::open(p.ctx, comm, "/pfs/indep",
                           amode::create | amode::rdwr, info);
    ASSERT_TRUE(file.is_ok());
    ASSERT_TRUE(file.value().write_at_all(
        comm.rank() * kBlock,
        DataView::synthetic(static_cast<std::uint64_t>(comm.rank()), 0,
                            kBlock)));
    ASSERT_TRUE(file.value().close());
  });
  p.run();
  expect_matches(p.pfs, "/pfs/indep", reference);
  // No shuffle happened: zero collective-buffer exchange means no rank
  // spent time in the exchange phase.
  EXPECT_EQ(
      obs::max_over_ranks(p.tracer.phase_totals(), prof::Phase::exchange), 0);
}

TEST(CollWrite, AutomaticModeSkipsExchangeForNonInterleaved) {
  Platform p(small_testbed());
  p.launch([&](mpi::Comm comm) {
    mpi::Info info;  // romio_cb_write defaults to automatic
    auto file = File::open(p.ctx, comm, "/pfs/auto",
                           amode::create | amode::rdwr, info);
    ASSERT_TRUE(file.is_ok());
    // Perfectly partitioned contiguous blocks: not interleaved.
    ASSERT_TRUE(file.value().write_at_all(
        comm.rank() * 64 * KiB,
        DataView::synthetic(1, comm.rank() * 64 * KiB, 64 * KiB)));
    ASSERT_TRUE(file.value().close());
  });
  p.run();
  const obs::PhaseTotals& phases = p.tracer.phase_totals();
  EXPECT_EQ(obs::max_over_ranks(phases, prof::Phase::exchange), 0);
  EXPECT_GT(obs::max_over_ranks(phases, prof::Phase::write_contig), 0);
}

TEST(CollWrite, EnableForcesCollectiveEvenWhenContiguous) {
  Platform p(small_testbed());
  p.launch([&](mpi::Comm comm) {
    auto file = File::open(p.ctx, comm, "/pfs/forced",
                           amode::create | amode::rdwr, cache_disabled());
    ASSERT_TRUE(file.is_ok());
    ASSERT_TRUE(file.value().write_at_all(
        comm.rank() * 64 * KiB,
        DataView::synthetic(1, comm.rank() * 64 * KiB, 64 * KiB)));
    ASSERT_TRUE(file.value().close());
  });
  p.run();
  const obs::PhaseTotals& phases = p.tracer.phase_totals();
  EXPECT_GT(obs::max_over_ranks(phases, prof::Phase::exchange), 0);
  EXPECT_GT(obs::max_over_ranks(phases, prof::Phase::shuffle_all2all), 0);
}

TEST(OpenClose, MissingFileFailsOnAllRanks) {
  Platform p(small_testbed());
  std::vector<int> failures(static_cast<std::size_t>(p.ranks()), 0);
  p.launch([&](mpi::Comm comm) {
    auto file = File::open(p.ctx, comm, "/pfs/missing", amode::rdonly, {});
    if (!file.is_ok()) {
      failures[static_cast<std::size_t>(comm.rank())] = 1;
    }
  });
  p.run();
  for (const int f : failures) EXPECT_EQ(f, 1);
}

TEST(OpenClose, ExclusiveCreateIsCollectivelyConsistent) {
  Platform p(small_testbed());
  int first_pass = 0, second_pass = 0;
  p.launch([&](mpi::Comm comm) {
    auto a = File::open(p.ctx, comm, "/pfs/excl",
                        amode::create | amode::excl | amode::rdwr, {});
    if (a.is_ok()) {
      if (comm.rank() == 0) ++first_pass;
      ASSERT_TRUE(a.value().close());
    }
    auto b = File::open(p.ctx, comm, "/pfs/excl",
                        amode::create | amode::excl | amode::rdwr, {});
    if (!b.is_ok() && comm.rank() == 0) ++second_pass;
  });
  p.run();
  EXPECT_EQ(first_pass, 1);   // first open succeeded everywhere
  EXPECT_EQ(second_pass, 1);  // second failed everywhere (checked on rank 0)
}

TEST(OpenClose, DeleteOnClose) {
  Platform p(small_testbed());
  p.launch([&](mpi::Comm comm) {
    auto file =
        File::open(p.ctx, comm, "/pfs/tmp",
                   amode::create | amode::rdwr | amode::delete_on_close, {});
    ASSERT_TRUE(file.is_ok());
    ASSERT_TRUE(file.value().close());
  });
  p.run();
  EXPECT_FALSE(p.pfs.exists("/pfs/tmp"));
}

TEST(OpenClose, InvalidAmodeRejected) {
  Platform p(small_testbed());
  int errors = 0;
  p.launch([&](mpi::Comm comm) {
    auto file = File::open(p.ctx, comm, "/pfs/x",
                           amode::rdonly | amode::create, {});
    if (!file.is_ok() && comm.rank() == 0) ++errors;
    auto both = File::open(p.ctx, comm, "/pfs/x",
                           amode::rdonly | amode::wronly, {});
    if (!both.is_ok() && comm.rank() == 0) ++errors;
  });
  p.run();
  EXPECT_EQ(errors, 2);
}

TEST(OpenClose, StripingHintsApplyOnCreate) {
  Platform p(small_testbed());
  p.launch([&](mpi::Comm comm) {
    mpi::Info info;
    info.set("striping_unit", "2097152");
    info.set("striping_factor", "1");
    auto file = File::open(p.ctx, comm, "/pfs/striped",
                           amode::create | amode::rdwr, info);
    ASSERT_TRUE(file.is_ok());
    ASSERT_TRUE(file.value().close());
  });
  p.run();
  const auto info = p.pfs.stat_path("/pfs/striped").value();
  EXPECT_EQ(info.stripe_unit, 2 * MiB);
  EXPECT_EQ(info.stripe_count, 1u);
}

TEST(OpenClose, BadHintsFailOpenEverywhere) {
  Platform p(small_testbed());
  int failures = 0;
  p.launch([&](mpi::Comm comm) {
    mpi::Info info;
    info.set("cb_buffer_size", "not-a-number");
    auto file =
        File::open(p.ctx, comm, "/pfs/bad", amode::create | amode::rdwr, info);
    if (!file.is_ok()) ++failures;
  });
  p.run();
  EXPECT_EQ(failures, p.ranks());
}

TEST(Independent, WriteAtAndReadAt) {
  Platform p(small_testbed());
  p.launch([&](mpi::Comm comm) {
    auto file = File::open(p.ctx, comm, "/pfs/ind",
                           amode::create | amode::rdwr, {});
    ASSERT_TRUE(file.is_ok());
    const Offset mine = comm.rank() * 8 * KiB;
    ASSERT_TRUE(file.value().write_at(
        mine, DataView::synthetic(static_cast<std::uint64_t>(comm.rank()), 0,
                                  8 * KiB)));
    const auto back = file.value().read_at(mine, 8 * KiB);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back.value().byte_at(100),
              DataView::pattern_byte(
                  static_cast<std::uint64_t>(comm.rank()), 100));
    ASSERT_TRUE(file.value().close());
  });
  p.run();
}

TEST(Independent, FilePointerAdvances) {
  Platform p(small_testbed());
  p.launch([&](mpi::Comm comm) {
    // split is collective: every rank participates, only rank 0 proceeds.
    mpi::Comm self = comm.split(comm.rank() == 0 ? 0 : -1, 0);
    if (!self.valid()) return;
    auto file = File::open(p.ctx, self, "/pfs/fp",
                           amode::create | amode::rdwr, {});
    ASSERT_TRUE(file.is_ok());
    EXPECT_EQ(file.value().tell(), 0);
    ASSERT_TRUE(file.value().write(DataView::synthetic(1, 0, 1000)));
    EXPECT_EQ(file.value().tell(), 1000);
    ASSERT_TRUE(file.value().write(DataView::synthetic(1, 1000, 500)));
    EXPECT_EQ(file.value().tell(), 1500);
    file.value().seek(200);
    const auto got = file.value().read(100);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(got.value().byte_at(0), DataView::pattern_byte(1, 200));
    EXPECT_EQ(file.value().tell(), 300);
    EXPECT_EQ(file.value().get_size().value(), 1500);
    ASSERT_TRUE(file.value().close());
  });
  p.run();
}

TEST(Independent, DataSievingCoalescesSmallStridedWrites) {
  Platform p(small_testbed());
  const std::uint64_t writes_before = p.pfs.stats().writes;
  p.launch([&](mpi::Comm comm) {
    mpi::Comm self = comm.split(comm.rank() == 0 ? 0 : -1, 0);
    if (!self.valid()) return;
    auto file = File::open(p.ctx, self, "/pfs/sieve",
                           amode::create | amode::rdwr, {});
    ASSERT_TRUE(file.is_ok());
    // 64 strided 512 B pieces with 512 B holes inside one 64 KiB span:
    // data sieving should issue ~1 covering write, not 64.
    std::vector<mpi::IoPiece> pieces;
    for (int i = 0; i < 64; ++i) {
      pieces.push_back(mpi::IoPiece{Extent{i * 1024, 512},
                                    DataView::synthetic(3, i * 1024, 512)});
    }
    ASSERT_TRUE(write_strided(*file.value().raw(), pieces));
    ASSERT_TRUE(file.value().close());
  });
  p.run();
  const std::uint64_t writes = p.pfs.stats().writes - writes_before;
  EXPECT_LE(writes, 4u);  // far fewer than 64 small requests
  // Content: pieces present, holes zero.
  const ByteStore* store = p.pfs.peek("/pfs/sieve");
  EXPECT_EQ(store->byte_at(0), DataView::pattern_byte(3, 0));
  EXPECT_EQ(store->byte_at(600), std::byte{0});
  EXPECT_EQ(store->byte_at(1024), DataView::pattern_byte(3, 1024));
}

TEST(Atomicity, SetterIsCollective) {
  Platform p(small_testbed());
  p.launch([&](mpi::Comm comm) {
    auto file = File::open(p.ctx, comm, "/pfs/atomic",
                           amode::create | amode::rdwr, {});
    ASSERT_TRUE(file.is_ok());
    EXPECT_FALSE(file.value().atomicity());
    ASSERT_TRUE(file.value().set_atomicity(true));
    EXPECT_TRUE(file.value().atomicity());
    ASSERT_TRUE(file.value().close());
  });
  p.run();
}

}  // namespace
}  // namespace e10::adio

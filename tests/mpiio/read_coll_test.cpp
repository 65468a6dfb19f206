// Two-phase collective read: coverage beyond the round-trip smoke tests —
// holes, EOF clamping, interleaved views, romio_cb_read toggles.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/units.h"
#include "mpiio/file.h"
#include "workloads/testbed.h"

namespace e10::mpiio {
namespace {

using namespace e10::units;
using adio::amode::create;
using adio::amode::rdwr;
using workloads::Platform;
using workloads::small_testbed;

mpi::Info coll_read_info() {
  mpi::Info info;
  info.set("romio_cb_write", "enable");
  info.set("romio_cb_read", "enable");
  info.set("cb_buffer_size", "131072");
  return info;
}

void write_rank_blocks(Platform& p, mpi::Comm comm, const std::string& path,
                       Offset block) {
  auto file = File::open(p.ctx, comm, path, create | rdwr, coll_read_info());
  ASSERT_TRUE(file.is_ok());
  ASSERT_TRUE(file.value().write_at_all(
      comm.rank() * block,
      DataView::synthetic(50, comm.rank() * block, block)));
  ASSERT_TRUE(file.value().close());
}

TEST(CollRead, EveryRankReadsWholeFile) {
  Platform p(small_testbed());
  constexpr Offset kBlock = 64 * KiB;
  p.launch([&](mpi::Comm comm) {
    write_rank_blocks(p, comm, "/pfs/whole", kBlock);
    auto file =
        File::open(p.ctx, comm, "/pfs/whole", rdwr, coll_read_info());
    ASSERT_TRUE(file.is_ok());
    const Offset total = static_cast<Offset>(comm.size()) * kBlock;
    const auto got = file.value().read_at_all(0, total);
    ASSERT_TRUE(got.is_ok());
    ASSERT_EQ(got.value().size(), total);
    for (Offset i = 0; i < total; i += 4099) {
      ASSERT_EQ(got.value().byte_at(i), DataView::pattern_byte(50, i));
    }
    ASSERT_TRUE(file.value().close());
  });
  p.run();
}

TEST(CollRead, InterleavedStridedReads) {
  Platform p(small_testbed());
  p.launch([&](mpi::Comm comm) {
    constexpr Offset kChunk = 8 * KiB;
    write_rank_blocks(p, comm, "/pfs/strided", kChunk * 8);
    auto file =
        File::open(p.ctx, comm, "/pfs/strided", rdwr, coll_read_info());
    ASSERT_TRUE(file.is_ok());
    // Each rank reads a strided view over the whole file: chunk r, r+P, ...
    const auto type = mpi::FlatType::vector(
        8, kChunk, kChunk * comm.size());
    ASSERT_TRUE(file.value().set_view(comm.rank() * kChunk, type));
    const auto got = file.value().read_all(8 * kChunk);
    ASSERT_TRUE(got.is_ok());
    ASSERT_EQ(got.value().size(), 8 * kChunk);
    // The j-th chunk of the stream is file offset (j*P + r) * kChunk.
    for (int j = 0; j < 8; ++j) {
      const Offset file_off =
          (static_cast<Offset>(j) * comm.size() + comm.rank()) * kChunk;
      ASSERT_EQ(got.value().byte_at(j * kChunk),
                DataView::pattern_byte(50, file_off))
          << "rank " << comm.rank() << " chunk " << j;
    }
    ASSERT_TRUE(file.value().close());
  });
  p.run();
}

TEST(CollRead, ReadPastEofZeroFills) {
  Platform p(small_testbed());
  constexpr Offset kBlock = 16 * KiB;
  p.launch([&](mpi::Comm comm) {
    write_rank_blocks(p, comm, "/pfs/eofr", kBlock);
    auto file = File::open(p.ctx, comm, "/pfs/eofr", rdwr, coll_read_info());
    ASSERT_TRUE(file.is_ok());
    const Offset total = static_cast<Offset>(comm.size()) * kBlock;
    // Request one block beyond EOF: delivered zero-padded.
    const auto got = file.value().read_at_all(total - kBlock, 2 * kBlock);
    ASSERT_TRUE(got.is_ok());
    ASSERT_EQ(got.value().size(), 2 * kBlock);
    EXPECT_EQ(got.value().byte_at(0),
              DataView::pattern_byte(50, total - kBlock));
    EXPECT_EQ(got.value().byte_at(kBlock + 5), std::byte{0});
    ASSERT_TRUE(file.value().close());
  });
  p.run();
}

TEST(CollRead, HolesReadAsZero) {
  Platform p(small_testbed());
  p.launch([&](mpi::Comm comm) {
    auto file = File::open(p.ctx, comm, "/pfs/holes", create | rdwr,
                           coll_read_info());
    ASSERT_TRUE(file.is_ok());
    // Only even ranks write; odd blocks are holes.
    const Offset block = 16 * KiB;
    if (comm.rank() % 2 == 0) {
      ASSERT_TRUE(file.value().write_at_all(
          comm.rank() * block,
          DataView::synthetic(51, comm.rank() * block, block)));
    } else {
      ASSERT_TRUE(file.value().write_at_all(0, DataView()));
    }
    ASSERT_TRUE(file.value().sync());
    const Offset total = static_cast<Offset>(comm.size()) * block;
    const auto got = file.value().read_at_all(0, total - block);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(got.value().byte_at(0), DataView::pattern_byte(51, 0));
    EXPECT_EQ(got.value().byte_at(block + 7), std::byte{0});  // hole
    ASSERT_TRUE(file.value().close());
  });
  p.run();
}

TEST(CollRead, DisabledCbReadUsesIndependentPath) {
  Platform p(small_testbed());
  constexpr Offset kBlock = 16 * KiB;
  p.launch([&](mpi::Comm comm) {
    write_rank_blocks(p, comm, "/pfs/nocoll", kBlock);
    mpi::Info info;
    info.set("romio_cb_read", "disable");
    auto file = File::open(p.ctx, comm, "/pfs/nocoll", rdwr, info);
    ASSERT_TRUE(file.is_ok());
    const auto got = file.value().read_at_all(comm.rank() * kBlock, kBlock);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(got.value().byte_at(3),
              DataView::pattern_byte(50, comm.rank() * kBlock + 3));
    ASSERT_TRUE(file.value().close());
  });
  p.run();
}

TEST(CollRead, ReadersShareAggregatorWindowReads) {
  // With collective reads, P ranks reading the whole file cost far fewer
  // PFS requests than P independent full-file reads.
  auto pfs_reads_with = [](const char* cb_read) {
    Platform p(small_testbed());
    constexpr Offset kBlock = 32 * KiB;
    p.launch([&, cb_read](mpi::Comm comm) {
      write_rank_blocks(p, comm, "/pfs/shared", kBlock);
      mpi::Info info;
      info.set("romio_cb_read", cb_read);
      info.set("cb_buffer_size", "262144");
      auto file = File::open(p.ctx, comm, "/pfs/shared", rdwr, info);
      ASSERT_TRUE(file.is_ok());
      const Offset total = static_cast<Offset>(comm.size()) * kBlock;
      const auto got = file.value().read_at_all(0, total);
      ASSERT_TRUE(got.is_ok());
      ASSERT_TRUE(file.value().close());
    });
    p.run();
    return p.pfs.stats().reads;
  };
  EXPECT_LT(pfs_reads_with("enable"), pfs_reads_with("disable"));
}

TEST(CollRead, VirtualEndTimeIsPinned) {
  // Four interleaved collective writes, then four collective reads, of
  // 48 KiB per rank and call through 64 KiB collective buffers. The end
  // time (the latest rank clock after the reads) and the engine's event
  // count are exact: a change to the read path's virtual time shows here.
  Platform p(small_testbed());
  constexpr Offset kBlock = 48 * KiB;
  constexpr int kCalls = 4;
  mpi::Info info = coll_read_info();
  info.set("cb_buffer_size", "65536");
  Time end = 0;
  p.launch([&](mpi::Comm comm) {
    auto file = File::open(p.ctx, comm, "/pfs/pinned", create | rdwr, info);
    ASSERT_TRUE(file.is_ok());
    const auto offset = [&comm](int call) {
      return (Offset{call} * comm.size() + comm.rank()) * kBlock;
    };
    for (int i = 0; i < kCalls; ++i) {
      ASSERT_TRUE(file.value().write_at_all(
          offset(i), DataView::synthetic(50, offset(i), kBlock)));
    }
    for (int i = 0; i < kCalls; ++i) {
      const auto got = file.value().read_at_all(offset(i), kBlock);
      ASSERT_TRUE(got.is_ok());
      ASSERT_EQ(got.value().byte_at(kBlock - 1),
                DataView::pattern_byte(50, offset(i) + kBlock - 1));
    }
    end = std::max(end, comm.engine().now());
    ASSERT_TRUE(file.value().close());
  });
  p.run();
  EXPECT_EQ(end, 126'787'252);
  EXPECT_EQ(p.engine.stats().events, 525u);
}

}  // namespace
}  // namespace e10::mpiio

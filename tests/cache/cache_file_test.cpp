#include "cache/cache_file.h"

#include <gtest/gtest.h>

#include "common/units.h"

namespace e10::cache {
namespace {

using namespace e10::units;

// One compute node (0), one data server (1), one metadata server (2).
struct Fixture {
  Fixture()
      : fabric(3, net::FabricParams{}),
        pfs(engine, fabric, {1}, 2, quiet_pfs(), 11),
        local_fs(engine, 0, quiet_lfs(), 12),
        locks(engine) {}

  static pfs::PfsParams quiet_pfs() {
    pfs::PfsParams p;
    p.data_servers = 1;
    p.target.jitter_sigma = 0.0;
    return p;
  }
  static lfs::LfsParams quiet_lfs() {
    lfs::LfsParams p;
    p.device.jitter_sigma = 0.0;
    p.capacity = 64 * MiB;
    return p;
  }

  pfs::FileHandle open_global() {
    pfs::OpenOptions opts;
    opts.create = true;
    return pfs.open("/pfs/global", 0, opts).value();
  }

  CacheFileParams params(FlushPolicy flush, bool coherent = false) {
    CacheFileParams p;
    p.global_path = "/pfs/global";
    p.cache_path = "/scratch/global.cache.0";
    p.flush = flush;
    p.coherent = coherent;
    p.drain.staging_bytes = 512 * KiB;
    p.alloc_chunk = 4 * MiB;
    return p;
  }

  void run(std::function<void()> body) {
    engine.spawn("app", std::move(body));
    engine.run();
  }

  sim::Engine engine;
  net::Fabric fabric;
  pfs::Pfs pfs;
  lfs::LocalFs local_fs;
  LockTable locks;
};

DataView pattern(Offset size) { return DataView::synthetic(77, 0, size); }

TEST(CacheFile, ImmediateFlushSyncsToGlobalFile) {
  Fixture f;
  f.run([&] {
    const auto handle = f.open_global();
    auto cache = CacheFile::open(f.engine, f.local_fs, f.pfs, handle,
                                 f.params(FlushPolicy::immediate), &f.locks);
    ASSERT_TRUE(cache.is_ok());
    ASSERT_TRUE(cache.value()->write({0, 1 * MiB}, pattern(1 * MiB)));
    ASSERT_TRUE(cache.value()->flush());
    ASSERT_TRUE(cache.value()->close());
  });
  // Data must be byte-identical in the global file.
  const ByteStore* global = f.pfs.peek("/pfs/global");
  ASSERT_NE(global, nullptr);
  EXPECT_EQ(global->extent_end(), 1 * MiB);
  EXPECT_EQ(global->byte_at(12345), DataView::pattern_byte(77, 12345));
}

TEST(CacheFile, CacheWriteMuchFasterThanSyncCompletion) {
  // The write returns at SSD speed; the PFS transfer happens in background.
  Fixture f;
  Time write_elapsed = 0;
  Time flush_elapsed = 0;
  f.run([&] {
    const auto handle = f.open_global();
    auto cache = CacheFile::open(f.engine, f.local_fs, f.pfs, handle,
                                 f.params(FlushPolicy::immediate), &f.locks);
    Time t0 = f.engine.now();
    ASSERT_TRUE(cache.value()->write({0, 16 * MiB}, pattern(16 * MiB)));
    write_elapsed = f.engine.now() - t0;
    t0 = f.engine.now();
    ASSERT_TRUE(cache.value()->flush());
    flush_elapsed = f.engine.now() - t0;
    ASSERT_TRUE(cache.value()->close());
  });
  EXPECT_GT(flush_elapsed, write_elapsed / 4);  // PFS path is the slow part
  EXPECT_GT(write_elapsed, 0);
}

TEST(CacheFile, OncloseDefersDispatchUntilFlush) {
  Fixture f;
  f.run([&] {
    const auto handle = f.open_global();
    auto cache = CacheFile::open(f.engine, f.local_fs, f.pfs, handle,
                                 f.params(FlushPolicy::onclose), &f.locks);
    ASSERT_TRUE(cache.value()->write({0, 1 * MiB}, pattern(1 * MiB)));
    // Give the sync thread plenty of virtual time: nothing may move yet.
    f.engine.delay(seconds(60));
    EXPECT_EQ(cache.value()->sync_stats().bytes_synced, 0);
    ASSERT_TRUE(cache.value()->close());  // close flushes
    EXPECT_EQ(cache.value()->sync_stats().bytes_synced, 1 * MiB);
  });
}

TEST(CacheFile, ImmediateDispatchProgressesInBackground) {
  Fixture f;
  f.run([&] {
    const auto handle = f.open_global();
    auto cache = CacheFile::open(f.engine, f.local_fs, f.pfs, handle,
                                 f.params(FlushPolicy::immediate), &f.locks);
    ASSERT_TRUE(cache.value()->write({0, 1 * MiB}, pattern(1 * MiB)));
    f.engine.delay(seconds(60));  // "compute phase"
    // The background thread has synced everything while we computed.
    EXPECT_EQ(cache.value()->sync_stats().bytes_synced, 1 * MiB);
    // So the flush wait is (nearly) free.
    const Time t0 = f.engine.now();
    ASSERT_TRUE(cache.value()->flush());
    EXPECT_LT(f.engine.now() - t0, milliseconds(1));
    ASSERT_TRUE(cache.value()->close());
  });
}

TEST(CacheFile, NonePolicyNeverSyncs) {
  Fixture f;
  f.run([&] {
    const auto handle = f.open_global();
    auto cache = CacheFile::open(f.engine, f.local_fs, f.pfs, handle,
                                 f.params(FlushPolicy::none), &f.locks);
    ASSERT_TRUE(cache.value()->write({0, 2 * MiB}, pattern(2 * MiB)));
    f.engine.delay(seconds(60));
    ASSERT_TRUE(cache.value()->flush());
    ASSERT_TRUE(cache.value()->close());
    EXPECT_EQ(cache.value()->sync_stats().bytes_synced, 0);
  });
  EXPECT_EQ(f.pfs.peek("/pfs/global")->extent_end(), 0);  // nothing landed
}

TEST(CacheFile, DiscardRemovesCacheFileOnClose) {
  Fixture f;
  f.run([&] {
    const auto handle = f.open_global();
    auto params = f.params(FlushPolicy::immediate);
    params.discard = true;
    auto cache = CacheFile::open(f.engine, f.local_fs, f.pfs, handle, params,
                                 &f.locks);
    ASSERT_TRUE(cache.value()->write({0, 64 * KiB}, pattern(64 * KiB)));
    EXPECT_TRUE(f.local_fs.exists("/scratch/global.cache.0"));
    ASSERT_TRUE(cache.value()->close());
    EXPECT_FALSE(f.local_fs.exists("/scratch/global.cache.0"));
    EXPECT_EQ(f.local_fs.used_bytes(), 0);
  });
}

TEST(CacheFile, RetainKeepsCacheFile) {
  Fixture f;
  f.run([&] {
    const auto handle = f.open_global();
    auto params = f.params(FlushPolicy::immediate);
    params.discard = false;
    auto cache = CacheFile::open(f.engine, f.local_fs, f.pfs, handle, params,
                                 &f.locks);
    ASSERT_TRUE(cache.value()->write({0, 64 * KiB}, pattern(64 * KiB)));
    ASSERT_TRUE(cache.value()->close());
    EXPECT_TRUE(f.local_fs.exists("/scratch/global.cache.0"));
  });
}

TEST(CacheFile, StagingChunksFollowIndWrBufferSize) {
  Fixture f;
  f.run([&] {
    const auto handle = f.open_global();
    auto params = f.params(FlushPolicy::immediate);
    params.drain.staging_bytes = 256 * KiB;
    auto cache = CacheFile::open(f.engine, f.local_fs, f.pfs, handle, params,
                                 &f.locks);
    ASSERT_TRUE(cache.value()->write({0, 1 * MiB}, pattern(1 * MiB)));
    ASSERT_TRUE(cache.value()->flush());
    EXPECT_EQ(cache.value()->sync_stats().staging_chunks, 4u);  // 1MiB/256KiB
    ASSERT_TRUE(cache.value()->close());
  });
}

TEST(CacheFile, CoherentModeLocksUntilSynced) {
  Fixture f;
  f.run([&] {
    const auto handle = f.open_global();
    auto cache =
        CacheFile::open(f.engine, f.local_fs, f.pfs, handle,
                        f.params(FlushPolicy::immediate, true), &f.locks);
    ASSERT_TRUE(cache.value()->write({0, 4 * MiB}, pattern(4 * MiB)));
    // Immediately after the write the extent is still in transit: locked.
    EXPECT_TRUE(f.locks.is_locked("/pfs/global", {1 * MiB, 1}));
    ASSERT_TRUE(cache.value()->flush());
    // After the flush completed, the lock is gone.
    EXPECT_FALSE(f.locks.is_locked("/pfs/global", {1 * MiB, 1}));
    ASSERT_TRUE(cache.value()->close());
  });
}

TEST(CacheFile, CoherentWithNoneFlushRejected) {
  Fixture f;
  f.run([&] {
    const auto handle = f.open_global();
    auto cache = CacheFile::open(f.engine, f.local_fs, f.pfs, handle,
                                 f.params(FlushPolicy::none, true), &f.locks);
    EXPECT_FALSE(cache.is_ok());
    EXPECT_EQ(cache.code(), Errc::invalid_argument);
  });
}

TEST(CacheFile, NoSpaceSurfacesToCaller) {
  Fixture f;
  f.run([&] {
    const auto handle = f.open_global();
    auto params = f.params(FlushPolicy::immediate);
    params.alloc_chunk = 1 * MiB;
    auto cache = CacheFile::open(f.engine, f.local_fs, f.pfs, handle, params,
                                 &f.locks);
    // Capacity is 64 MiB: the 65th MiB write must fail with no_space.
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(cache.value()->write({i * MiB, MiB}, pattern(MiB)));
    }
    const Status overflow = cache.value()->write({64 * MiB, MiB}, pattern(MiB));
    EXPECT_EQ(overflow.code(), Errc::no_space);
    ASSERT_TRUE(cache.value()->close());
  });
}

TEST(CacheFile, SizeMismatchRejected) {
  Fixture f;
  f.run([&] {
    const auto handle = f.open_global();
    auto cache = CacheFile::open(f.engine, f.local_fs, f.pfs, handle,
                                 f.params(FlushPolicy::immediate), &f.locks);
    EXPECT_EQ(cache.value()->write({0, 100}, pattern(50)).code(),
              Errc::invalid_argument);
    ASSERT_TRUE(cache.value()->close());
  });
}

TEST(CacheFile, CloseIsIdempotent) {
  Fixture f;
  f.run([&] {
    const auto handle = f.open_global();
    auto cache = CacheFile::open(f.engine, f.local_fs, f.pfs, handle,
                                 f.params(FlushPolicy::immediate), &f.locks);
    ASSERT_TRUE(cache.value()->close());
    ASSERT_TRUE(cache.value()->close());
    EXPECT_EQ(cache.value()->write({0, 10}, pattern(10)).code(),
              Errc::invalid_argument);
  });
}

TEST(CacheFile, ManyExtentsSyncInOrderAndCompletely) {
  Fixture f;
  f.run([&] {
    const auto handle = f.open_global();
    auto cache = CacheFile::open(f.engine, f.local_fs, f.pfs, handle,
                                 f.params(FlushPolicy::immediate), &f.locks);
    // Write extents out of file order: the log-structured cache appends.
    for (const Offset off : {8, 0, 24, 16}) {
      ASSERT_TRUE(cache.value()->write({off * KiB, 8 * KiB},
                                       DataView::synthetic(5, off * KiB, 8 * KiB)));
    }
    ASSERT_TRUE(cache.value()->flush());
    ASSERT_TRUE(cache.value()->close());
  });
  const ByteStore* global = f.pfs.peek("/pfs/global");
  for (Offset pos = 0; pos < 32 * KiB; pos += 1111) {
    EXPECT_EQ(global->byte_at(pos), DataView::pattern_byte(5, pos));
  }
}

}  // namespace
}  // namespace e10::cache

// Sync-thread retry/backoff, requeue/abandon and local-device quarantine.
#include <gtest/gtest.h>

#include <functional>

#include "cache/cache_file.h"
#include "common/units.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"

namespace e10::cache {
namespace {

using namespace e10::units;

// One compute node (0), one data server (1), one metadata server (2).
struct Fixture {
  Fixture()
      : fabric(3, net::FabricParams{}),
        pfs(engine, fabric, {1}, 2, quiet_pfs(), 11),
        local_fs(engine, 0, quiet_lfs(), 12),
        locks(engine),
        injector(engine) {}

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

  CacheFileParams params(FlushPolicy flush = FlushPolicy::immediate) {
    CacheFileParams p;
    p.global_path = "/pfs/global";
    p.cache_path = "/scratch/global.cache.0";
    p.flush = flush;
    p.drain.staging_bytes = 512 * KiB;
    p.alloc_chunk = 4 * MiB;
    return p;
  }

  Time run(std::function<void()> body) {
    engine.spawn("app", std::move(body));
    engine.run();
    return engine.now();
  }

  sim::Engine engine;
  net::Fabric fabric;
  pfs::Pfs pfs;
  lfs::LocalFs local_fs;
  LockTable locks;
  fault::FaultInjector injector;
};

DataView pattern(Offset size) { return DataView::synthetic(77, 0, size); }

// Runs one 512 KiB cached write (a single staging chunk) with `failures`
// forced transient pfs_write errors and a jitter-free 10ms/40ms backoff.
Time run_with_forced_failures(int failures, std::uint64_t* retries) {
  Fixture f;
  if (failures > 0) {
    f.pfs.set_fault_injector(&f.injector);
    f.injector.force_failures(fault::FaultOp::pfs_write, failures,
                              Errc::timed_out);
  }
  Time end = 0;
  f.run([&] {
    const auto handle = f.open_global();
    CacheFileParams p = f.params();
    p.retry.max_attempts = 5;
    p.retry.backoff_base = milliseconds(10);
    p.retry.backoff_cap = milliseconds(40);
    p.retry.jitter = 0.0;
    auto cache =
        CacheFile::open(f.engine, f.local_fs, f.pfs, handle, p, &f.locks);
    ASSERT_TRUE(cache.is_ok());
    ASSERT_TRUE(cache.value()->write({0, 512 * KiB}, pattern(512 * KiB)));
    ASSERT_TRUE(cache.value()->flush());
    if (retries != nullptr) *retries = cache.value()->sync_stats().retries;
    ASSERT_TRUE(cache.value()->close());
    end = f.engine.now();
  });
  // The data must be durable despite the transient failures.
  const ByteStore* global = f.pfs.peek("/pfs/global");
  EXPECT_NE(global, nullptr);
  if (global != nullptr) {
    EXPECT_EQ(global->extent_end(), 512 * KiB);
  }
  return end;
}

TEST(SyncRetry, TransientFailuresAreRetriedWithBackoff) {
  const Time clean = run_with_forced_failures(0, nullptr);
  std::uint64_t retries = 0;
  const Time faulty = run_with_forced_failures(2, &retries);
  EXPECT_EQ(retries, 2u);
  // Two jitter-free backoffs: 10ms then 20ms, plus two re-staged chunk
  // reads. Bounded window keeps the schedule honest without pinning exact
  // device service times.
  const Time delta = faulty - clean;
  EXPECT_GE(delta, milliseconds(30));
  EXPECT_LE(delta, milliseconds(45));
}

TEST(SyncRetry, BackoffScheduleIsDeterministic) {
  // Jitter draws come from a seeded per-thread stream: two identical runs
  // must finish at the identical virtual time.
  const Time a = run_with_forced_failures(3, nullptr);
  const Time b = run_with_forced_failures(3, nullptr);
  EXPECT_EQ(a, b);
  EXPECT_GT(a, run_with_forced_failures(0, nullptr));
}

TEST(SyncRetry, JitteredBackoffIsPinned) {
  // The default policy stretches each backoff by up to 25% with draws from
  // the thread's seeded generator. Three failed writes draw three delays,
  // so the end time pins the draws: a generator seeded differently, or
  // drawn from out of turn, moves it. Every other retry test turns jitter
  // off. The draws are those of a build that seeded the generator at
  // start() (backoffs of 1.25, 2.35 and 4.90 ms); the blocking write hands
  // its sync request over at issue, as iwrite does.
  Fixture f;
  f.pfs.set_fault_injector(&f.injector);
  f.injector.force_failures(fault::FaultOp::pfs_write, 3, Errc::timed_out);
  std::uint64_t retries = 0;
  f.run([&] {
    const auto handle = f.open_global();
    auto cache = CacheFile::open(f.engine, f.local_fs, f.pfs, handle,
                                 f.params(), &f.locks);
    ASSERT_TRUE(cache.is_ok());
    ASSERT_TRUE(cache.value()->write({0, 512 * KiB}, pattern(512 * KiB)));
    ASSERT_TRUE(cache.value()->flush());
    retries = cache.value()->sync_stats().retries;
    ASSERT_TRUE(cache.value()->close());
  });
  EXPECT_EQ(retries, 3u);
  EXPECT_EQ(f.engine.now(), 20015171);
}

TEST(SyncRetry, ExhaustedRequestIsRequeuedThenAbandoned) {
  Fixture f;
  f.pfs.set_fault_injector(&f.injector);
  // More failures than the whole retry budget can absorb:
  // (max_attempts + 1) failures per dispatch x (max_requeues + 1) dispatches.
  f.injector.force_failures(fault::FaultOp::pfs_write, 100, Errc::timed_out);
  f.run([&] {
    const auto handle = f.open_global();
    CacheFileParams p = f.params();
    p.retry.max_attempts = 1;
    p.retry.max_requeues = 1;
    p.retry.backoff_base = milliseconds(1);
    p.retry.backoff_cap = milliseconds(2);
    p.retry.jitter = 0.0;
    auto cache =
        CacheFile::open(f.engine, f.local_fs, f.pfs, handle, p, &f.locks);
    ASSERT_TRUE(cache.is_ok());
    ASSERT_TRUE(cache.value()->write({0, 512 * KiB}, pattern(512 * KiB)));

    // The flush must NOT hang: the abandoned request still completes its
    // grequest, and the data loss surfaces as an error exactly once.
    const Status flushed = cache.value()->flush();
    ASSERT_FALSE(flushed.is_ok());
    EXPECT_EQ(flushed.code(), Errc::io_error);
    EXPECT_EQ(cache.value()->sync_stats().requeues, 1u);
    EXPECT_EQ(cache.value()->sync_stats().abandoned, 1u);
    EXPECT_TRUE(cache.value()->flush());  // already reported

    EXPECT_TRUE(cache.value()->close());
  });
  // Nothing could be synced.
  const ByteStore* global = f.pfs.peek("/pfs/global");
  ASSERT_NE(global, nullptr);
  EXPECT_EQ(global->extent_end(), 0);
}

TEST(SyncRetry, CloseAfterFlushErrorStillTearsDown) {
  Fixture f;
  f.pfs.set_fault_injector(&f.injector);
  f.injector.force_failures(fault::FaultOp::pfs_write, 100, Errc::timed_out);
  f.run([&] {
    const auto handle = f.open_global();
    CacheFileParams p = f.params();
    p.retry.max_attempts = 1;
    p.retry.max_requeues = 0;
    p.retry.backoff_base = milliseconds(1);
    p.retry.backoff_cap = milliseconds(1);
    auto cache =
        CacheFile::open(f.engine, f.local_fs, f.pfs, handle, p, &f.locks);
    ASSERT_TRUE(cache.is_ok());
    ASSERT_TRUE(cache.value()->write({0, 256 * KiB}, pattern(256 * KiB)));

    // close() reports the flush failure but must still stop the sync
    // thread, close the handle and (discard) unlink the cache file —
    // the old behaviour leaked the sync thread and deadlocked the engine.
    const Status closed = cache.value()->close();
    EXPECT_FALSE(closed.is_ok());
    EXPECT_TRUE(cache.value()->closed());
    EXPECT_TRUE(cache.value()->close());  // idempotent
    EXPECT_FALSE(f.local_fs.exists("/scratch/global.cache.0"));
  });
}

TEST(SyncRetry, MidRunDeviceFailureQuarantinesCache) {
  Fixture f;
  obs::MetricsRegistry metrics;
  f.local_fs.set_fault_injector(&f.injector);
  f.run([&] {
    const auto handle = f.open_global();
    CacheFileParams p = f.params();
    p.metrics = &metrics;
    p.quarantine_after = 3;
    auto opened =
        CacheFile::open(f.engine, f.local_fs, f.pfs, handle, p, &f.locks);
    ASSERT_TRUE(opened.is_ok());
    CacheFile& cache = *opened.value();

    // Two healthy writes; their extents sync normally.
    ASSERT_TRUE(cache.write({0, 256 * KiB}, pattern(256 * KiB)));
    ASSERT_TRUE(cache.write({256 * KiB, 256 * KiB},
                            DataView::synthetic(77, 256 * KiB, 256 * KiB)));

    // The local device starts failing hard mid-run.
    f.injector.force_failures(fault::FaultOp::lfs_write, 50, Errc::io_error);
    for (int i = 0; i < 3; ++i) {
      EXPECT_FALSE(cache.degraded());
      const Status s = cache.write({1 * MiB, 64 * KiB}, pattern(64 * KiB));
      ASSERT_FALSE(s.is_ok());
      EXPECT_EQ(s.code(), Errc::io_error);
    }
    // Quarantined: writes now fail fast without touching the device, the
    // caller falls back to direct global writes (adio write_contig path).
    EXPECT_TRUE(cache.degraded());
    const Status fast = cache.write({1 * MiB, 64 * KiB}, pattern(64 * KiB));
    ASSERT_FALSE(fast.is_ok());
    EXPECT_EQ(fast.code(), Errc::unavailable);
    EXPECT_EQ(f.injector.forced_remaining(fault::FaultOp::lfs_write), 47);
    EXPECT_FALSE(cache.try_read({0, 64 * KiB}).has_value());

    // Outstanding grequests from the healthy writes still complete and the
    // teardown is clean.
    EXPECT_TRUE(cache.flush());
    EXPECT_TRUE(cache.close());
  });
  EXPECT_EQ(metrics.counter_value(obs::names::kCacheDegraded), 1);
  // The two healthy extents made it to the global file.
  const ByteStore* global = f.pfs.peek("/pfs/global");
  ASSERT_NE(global, nullptr);
  EXPECT_EQ(global->extent_end(), 512 * KiB);
  EXPECT_EQ(global->byte_at(300 * KiB), DataView::pattern_byte(77, 300 * KiB));
}

}  // namespace
}  // namespace e10::cache

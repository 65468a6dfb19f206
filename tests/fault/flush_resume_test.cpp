// Regression: a sync request requeued after a mid-extent PFS timeout must
// never re-send its already-durable bytes — including when the flush
// scheduler later coalesces it with other queued requests.
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

TEST(FlushResume, RequeuedRequestCoalescedLaterNeverResendsDurableBytes) {
  Fixture f;
  f.pfs.set_fault_injector(&f.injector);
  // A 2 MiB extent drains as four 512 KiB dispatches. The first two reach
  // the media; the third times out persistently enough (2 failures against
  // a 1-attempt budget) to push the request back onto the queue with
  // synced = 1 MiB.
  f.injector.force_failures(fault::FaultOp::pfs_write, 2, Errc::timed_out,
                            /*after=*/2);
  f.run([&] {
    pfs::OpenOptions opts;
    opts.create = true;
    const auto handle = f.pfs.open("/pfs/global", 0, opts).value();
    CacheFileParams p;
    p.global_path = "/pfs/global";
    p.cache_path = "/scratch/global.cache.0";
    // Defer dispatch to flush so the 2 MiB extent and its adjacent
    // neighbour are queued together: the requeued remainder must coalesce
    // with the neighbour on the second pass.
    p.flush = FlushPolicy::onclose;
    p.drain.staging_bytes = 512 * KiB;
    p.alloc_chunk = 4 * MiB;
    p.retry.max_attempts = 1;
    p.retry.max_requeues = 4;
    p.retry.backoff_base = milliseconds(1);
    p.retry.backoff_cap = milliseconds(2);
    p.retry.jitter = 0.0;
    auto cache =
        CacheFile::open(f.engine, f.local_fs, f.pfs, handle, p, &f.locks);
    ASSERT_TRUE(cache.is_ok());
    ASSERT_TRUE(cache.value()->write({0, 2 * MiB}, pattern(2 * MiB)));
    ASSERT_TRUE(
        cache.value()->write({2 * MiB, 512 * KiB}, pattern(512 * KiB)));

    ASSERT_TRUE(cache.value()->flush());
    const SyncStats& stats = cache.value()->sync_stats();
    EXPECT_GE(stats.requeues, 1u);
    EXPECT_EQ(stats.abandoned, 0u);
    // Resume accounting: the two batches issued 1 MiB + 1.5 MiB — every
    // byte exactly once, nothing re-sent after the requeue.
    EXPECT_EQ(stats.bytes_synced, 2 * MiB + 512 * KiB);
    ASSERT_TRUE(cache.value()->close());
  });
  // Failed writes apply no content and charge no bytes, so the PFS-side
  // write counter equals the file size iff no durable byte went twice.
  EXPECT_EQ(f.pfs.stats().bytes_written, 2 * MiB + 512 * KiB);
  const ByteStore* global = f.pfs.peek("/pfs/global");
  ASSERT_NE(global, nullptr);
  EXPECT_EQ(global->extent_end(), 2 * MiB + 512 * KiB);
}

}  // namespace
}  // namespace e10::cache

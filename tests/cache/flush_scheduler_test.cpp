// Flush-scheduler planning (coalescing, stripe alignment, synced resume)
// and drain behaviour (streaming overlap, serial baseline, retry handoff).
#include "cache/flush_scheduler.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <utility>

#include "common/rng.h"
#include "common/units.h"
#include "fault/fault_injector.h"
#include "net/fabric.h"
#include "support/quick_point.h"

namespace e10::cache {
namespace {

using namespace e10::units;

SyncRequest request(Offset global_offset, Offset length, Offset cache_offset,
                    Offset synced = 0) {
  SyncRequest r;
  r.global = Extent{global_offset, length};
  r.cache_offset = cache_offset;
  r.synced = synced;
  return r;
}

// ---- plan_dispatches: the pure planning step ------------------------------

TEST(FlushPlan, AdjacentMembersCoalesceIntoOneDispatch) {
  const std::vector<SyncRequest> members = {
      request(0, 128 * KiB, 0),
      request(128 * KiB, 128 * KiB, 128 * KiB),
  };
  const auto plan = plan_dispatches(members, 512 * KiB, /*stripe_unit=*/0);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].global, (Extent{0, 256 * KiB}));
  ASSERT_EQ(plan[0].pieces.size(), 2u);
  EXPECT_EQ(plan[0].pieces[0].member, 0u);
  EXPECT_EQ(plan[0].pieces[1].member, 1u);
  EXPECT_EQ(plan[0].pieces[1].cache_offset, 128 * KiB);
}

TEST(FlushPlan, QueueOrderDoesNotMatterOnlyFileOrderDoes) {
  // Members arrive out of file order; the plan sorts by global offset.
  const std::vector<SyncRequest> members = {
      request(128 * KiB, 128 * KiB, 0),
      request(0, 128 * KiB, 128 * KiB),
  };
  const auto plan = plan_dispatches(members, 512 * KiB, 0);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].global, (Extent{0, 256 * KiB}));
  EXPECT_EQ(plan[0].pieces[0].member, 1u);  // the one at file offset 0
}

TEST(FlushPlan, GapsSplitDispatches) {
  const std::vector<SyncRequest> members = {
      request(0, 64 * KiB, 0),
      request(128 * KiB, 64 * KiB, 64 * KiB),
  };
  const auto plan = plan_dispatches(members, 512 * KiB, 0);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].global, (Extent{0, 64 * KiB}));
  EXPECT_EQ(plan[1].global, (Extent{128 * KiB, 64 * KiB}));
}

TEST(FlushPlan, StagingCapacityBoundsADispatch) {
  const std::vector<SyncRequest> members = {request(0, 1280 * KiB, 0)};
  const auto plan = plan_dispatches(members, 512 * KiB, 0);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].global, (Extent{0, 512 * KiB}));
  EXPECT_EQ(plan[1].global, (Extent{512 * KiB, 512 * KiB}));
  EXPECT_EQ(plan[2].global, (Extent{1024 * KiB, 256 * KiB}));
}

TEST(FlushPlan, DispatchesNeverCrossAStripeBoundary) {
  // 4 MiB staging would happily span stripes; a 1 MiB stripe unit must
  // split the run at every boundary, starting from an unaligned offset.
  const std::vector<SyncRequest> members = {
      request(768 * KiB, 1536 * KiB, 0)};
  const auto plan = plan_dispatches(members, 4 * MiB, 1 * MiB);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].global, (Extent{768 * KiB, 256 * KiB}));
  EXPECT_EQ(plan[1].global, (Extent{1024 * KiB, 1024 * KiB}));
  EXPECT_EQ(plan[2].global, (Extent{2048 * KiB, 256 * KiB}));
  for (const Dispatch& d : plan) {
    const Offset first_stripe = d.global.offset / MiB;
    const Offset last_stripe = (d.global.end() - 1) / MiB;
    EXPECT_EQ(first_stripe, last_stripe);
  }
}

TEST(FlushPlan, ExtentsMeetingAtAStripeBoundaryStaySplit) {
  // Two requests adjacent exactly at the 1 MiB stripe boundary: they
  // coalesce into one run but dispatch as one write per data server.
  const std::vector<SyncRequest> members = {
      request(512 * KiB, 512 * KiB, 0),
      request(1 * MiB, 512 * KiB, 512 * KiB),
  };
  const auto plan = plan_dispatches(members, 4 * MiB, 1 * MiB);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].global, (Extent{512 * KiB, 512 * KiB}));
  EXPECT_EQ(plan[1].global, (Extent{1 * MiB, 512 * KiB}));
  ASSERT_EQ(plan[1].pieces.size(), 1u);
  EXPECT_EQ(plan[1].pieces[0].member, 1u);
}

TEST(FlushPlan, SyncedPrefixIsNotReplanned) {
  // 256 KiB of the first request is already durable: the plan resumes at
  // the remaining extent and the matching cache position.
  const std::vector<SyncRequest> members = {
      request(0, 512 * KiB, 1 * MiB, /*synced=*/256 * KiB)};
  const auto plan = plan_dispatches(members, 512 * KiB, 0);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].global, (Extent{256 * KiB, 256 * KiB}));
  ASSERT_EQ(plan[0].pieces.size(), 1u);
  EXPECT_EQ(plan[0].pieces[0].cache_offset, 1 * MiB + 256 * KiB);
}

TEST(FlushPlan, FullySyncedMembersProduceNoWork) {
  const std::vector<SyncRequest> members = {
      request(0, 128 * KiB, 0, /*synced=*/128 * KiB)};
  EXPECT_TRUE(plan_dispatches(members, 512 * KiB, 0).empty());
}

// ---- FlushScheduler::drain: simulated end-to-end --------------------------

// One compute node (0), one data server (1), one metadata server (2).
struct Fixture {
  Fixture()
      : fabric(3, net::FabricParams{}),
        pfs(engine, fabric, {1}, 2, quiet_pfs(), 11),
        local_fs(engine, 0, quiet_lfs(), 12),
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
  fault::FaultInjector injector;
};

// Stages `total` cached bytes and drains them through a scheduler with the
// given stream count; returns the drain's virtual duration.
Time drain_duration(int streams, Offset total, std::uint64_t* hidden = nullptr,
                    std::uint64_t* dispatches = nullptr) {
  Fixture f;
  Time elapsed = 0;
  f.run([&] {
    pfs::OpenOptions opts;
    opts.create = true;
    const auto global = f.pfs.open("/pfs/global", 0, opts).value();
    const auto cache =
        f.local_fs.open("/scratch/c0", /*create=*/true).value();
    ASSERT_TRUE(f.local_fs.write(cache, 0, DataView::synthetic(7, 0, total)));

    FlushSchedulerParams params;
    params.streams = streams;
    params.staging_bytes = 512 * KiB;
    FlushScheduler sched(f.engine, f.local_fs, cache, f.pfs, global,
                         "/pfs/global", params);
    std::vector<SyncRequest> batch = {request(0, total, 0)};
    RetryPolicy retry;
    retry.jitter = 0.0;
    LazyRng rng(99);
    const Time start = f.engine.now();
    const BatchOutcome outcome = sched.drain(batch, retry, rng);
    elapsed = f.engine.now() - start;
    ASSERT_TRUE(outcome.status.is_ok());
    EXPECT_EQ(outcome.bytes_written, total);
    EXPECT_EQ(batch[0].synced, total);
    if (hidden != nullptr) {
      *hidden = static_cast<std::uint64_t>(sched.overlap().hidden_time());
    }
    if (dispatches != nullptr) *dispatches = outcome.dispatches;
    EXPECT_EQ(f.pfs.peek("/pfs/global")->extent_end(), total);
  });
  return elapsed;
}

TEST(FlushScheduler_, StreamsOverlapTheDrain) {
  std::uint64_t hidden1 = 0;
  std::uint64_t hidden4 = 0;
  std::uint64_t dispatches = 0;
  const Time serial = drain_duration(1, 4 * MiB, &hidden1);
  const Time streamed = drain_duration(4, 4 * MiB, &hidden4, &dispatches);
  EXPECT_EQ(dispatches, 8u);  // 4 MiB / 512 KiB
  // Four in-flight streams must beat the serial read->write->read loop,
  // and the win must show up as hidden write service time.
  EXPECT_LT(streamed, serial);
  EXPECT_EQ(hidden1, 0u);
  EXPECT_GT(hidden4, 0u);

  // The quick sweep's 4_16m point, cache enabled, over streams {1, 4} x
  // coalescing {off, on}: every ablation writes the serial baseline's
  // bytes, coalescing never slows the drain at equal streams, the full
  // scheduler beats the baseline's drain without slowing the run, and it
  // stays race- and cycle-free.
  using workloads::ExperimentResult;
  std::map<std::pair<int, bool>, ExperimentResult> runs;
  for (const int streams : {1, 4}) {
    for (const bool coalesce : {false, true}) {
      workloads::ExperimentSpec spec = workloads::quick_collperf_spec(
          4, 16 * MiB, workloads::CacheCase::enabled, 2);
      spec.sync_streams = streams;
      spec.flush_coalesce = coalesce;
      spec.check_concurrency = streams == 4 && coalesce;
      runs[{streams, coalesce}] =
          workloads::run_experiment(spec, workloads::quick_collperf());
    }
  }
  const ExperimentResult& base = runs.at({1, false});
  const ExperimentResult& best = runs.at({4, true});
  for (const auto& [ablation, run] : runs) {
    EXPECT_EQ(run.content_checksum, base.content_checksum)
        << "streams=" << ablation.first << " coalesce=" << ablation.second;
  }
  for (const int streams : {1, 4}) {
    EXPECT_LE(runs.at({streams, true}).sync.busy_time,
              runs.at({streams, false}).sync.busy_time)
        << "streams=" << streams;
  }
  EXPECT_LT(best.sync.busy_time, base.sync.busy_time);
  EXPECT_LE(best.workflow.io_time, base.workflow.io_time);
  EXPECT_EQ(best.analysis_races, 0u);
  EXPECT_EQ(best.analysis_cycles, 0u);
}

TEST(FlushScheduler_, DrainReportsMediaTimeAndJoinAllWaitsItOut) {
  Fixture f;
  f.run([&] {
    pfs::OpenOptions opts;
    opts.create = true;
    const auto global = f.pfs.open("/pfs/global", 0, opts).value();
    const auto cache =
        f.local_fs.open("/scratch/c0", /*create=*/true).value();
    ASSERT_TRUE(
        f.local_fs.write(cache, 0, DataView::synthetic(7, 0, 2 * MiB)));
    FlushSchedulerParams params;
    params.streams = 8;
    FlushScheduler sched(f.engine, f.local_fs, cache, f.pfs, global,
                         "/pfs/global", params);
    std::vector<SyncRequest> batch = {request(0, 2 * MiB, 0)};
    RetryPolicy retry;
    retry.jitter = 0.0;
    LazyRng rng(99);
    const BatchOutcome outcome = sched.drain(batch, retry, rng);
    ASSERT_TRUE(outcome.status.is_ok());
    // Resume offsets advance at issue time (the writes' content is already
    // determined), but the durability promise is the reported media time:
    // with more streams than dispatches nothing was joined in the drain,
    // so that time is still ahead of the clock until join_all waits it out.
    EXPECT_EQ(batch.front().synced, 2 * MiB);
    EXPECT_GT(outcome.done_time, f.engine.now());
    sched.join_all();
    EXPECT_GE(f.engine.now(), outcome.done_time);
  });
}

TEST(FlushScheduler_, ExhaustedAttemptsHandBackWithSyncedAdvanced) {
  Fixture f;
  f.pfs.set_fault_injector(&f.injector);
  f.run([&] {
    pfs::OpenOptions opts;
    opts.create = true;
    const auto global = f.pfs.open("/pfs/global", 0, opts).value();
    const auto cache =
        f.local_fs.open("/scratch/c0", /*create=*/true).value();
    ASSERT_TRUE(
        f.local_fs.write(cache, 0, DataView::synthetic(7, 0, 1 * MiB)));
    FlushSchedulerParams params;
    params.streams = 1;
    FlushScheduler sched(f.engine, f.local_fs, cache, f.pfs, global,
                         "/pfs/global", params);
    // Dispatch 2 of 2 fails persistently (a mid-extent timeout); the shared
    // attempt budget runs out and drain() reports the failure with the
    // first 512 KiB durable.
    f.injector.force_failures(fault::FaultOp::pfs_write, 3, Errc::timed_out,
                              /*after=*/1);
    std::vector<SyncRequest> batch = {request(512 * KiB, 1 * MiB, 0)};
    RetryPolicy retry;
    retry.max_attempts = 2;
    retry.backoff_base = milliseconds(1);
    retry.backoff_cap = milliseconds(1);
    retry.jitter = 0.0;
    LazyRng rng(99);
    const BatchOutcome outcome = sched.drain(batch, retry, rng);
    EXPECT_FALSE(outcome.status.is_ok());
    EXPECT_EQ(outcome.status.code(), Errc::timed_out);
    EXPECT_EQ(outcome.retries, 2);
    EXPECT_EQ(outcome.bytes_written, 512 * KiB);
    EXPECT_EQ(batch[0].synced, 512 * KiB);
    EXPECT_EQ(batch[0].remaining(), (Extent{1024 * KiB, 512 * KiB}));
  });
}

}  // namespace
}  // namespace e10::cache

// Journal record codec, extent replay rules, and the crash -> recover ->
// replay end-to-end path (the paper's §III durability argument: the cache
// lives on non-volatile memory, so a crash loses no data).
#include <gtest/gtest.h>

#include <functional>

#include "cache/cache_file.h"
#include "cache/journal.h"
#include "common/units.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"

namespace e10::cache {
namespace {

using namespace e10::units;

TEST(Journal, WriteRecordRoundTrip) {
  std::vector<DataView> parts;
  parts.push_back(encode_write_record({1, 0, 4096, 0}));
  parts.push_back(encode_write_record({2, 1 * MiB, 512 * KiB, 4096}));
  const auto records = scan_write_records(DataView::concat(parts));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].seq, 1u);
  EXPECT_EQ(records[0].global_offset, 0);
  EXPECT_EQ(records[0].length, 4096);
  EXPECT_EQ(records[1].seq, 2u);
  EXPECT_EQ(records[1].global_offset, 1 * MiB);
  EXPECT_EQ(records[1].length, 512 * KiB);
  EXPECT_EQ(records[1].cache_offset, 4096);
}

TEST(Journal, ScanStopsAtTruncatedTailAndBadMagic) {
  std::vector<DataView> parts;
  parts.push_back(encode_write_record({1, 0, 4096, 0}));
  parts.push_back(encode_write_record({2, 4096, 4096, 4096}));
  // A crash interrupted the third append mid-record.
  parts.push_back(encode_write_record({3, 8192, 4096, 8192}).slice(0, 17));
  EXPECT_EQ(scan_write_records(DataView::concat(parts)).size(), 2u);

  // Garbage where a record should start: everything after is ignored.
  std::vector<DataView> corrupt;
  corrupt.push_back(encode_write_record({1, 0, 4096, 0}));
  corrupt.push_back(DataView::synthetic(5, 0, kWriteRecordBytes));
  corrupt.push_back(encode_write_record({2, 4096, 4096, 4096}));
  EXPECT_EQ(scan_write_records(DataView::concat(corrupt)).size(), 1u);

  EXPECT_TRUE(scan_write_records(DataView()).empty());
}

TEST(Journal, CommitRecordRoundTrip) {
  std::vector<DataView> parts;
  parts.push_back(encode_commit_record(7));
  parts.push_back(encode_commit_record(3));
  parts.push_back(encode_commit_record(9).slice(0, 8));  // truncated
  const auto seqs = scan_commit_records(DataView::concat(parts));
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{7, 3}));
}

TEST(Journal, ApplyExtentShadowsAndSplits) {
  ExtentMap map;
  apply_extent(map, {0, 1000}, 0, 1);
  apply_extent(map, {400, 200}, 1000, 2);  // punches a hole in the middle
  ASSERT_EQ(map.size(), 3u);
  EXPECT_EQ(map.at(0).length, 400);
  EXPECT_EQ(map.at(0).seq, 1u);
  EXPECT_EQ(map.at(0).cache_offset, 0);
  EXPECT_EQ(map.at(400).length, 200);
  EXPECT_EQ(map.at(400).seq, 2u);
  EXPECT_EQ(map.at(400).cache_offset, 1000);
  EXPECT_EQ(map.at(600).length, 400);
  EXPECT_EQ(map.at(600).seq, 1u);  // split fragments keep the old seq
  EXPECT_EQ(map.at(600).cache_offset, 600);

  // A covering write shadows everything beneath it.
  apply_extent(map, {0, 1000}, 2000, 3);
  ASSERT_EQ(map.size(), 1u);
  EXPECT_EQ(map.at(0).seq, 3u);
}

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

  CacheFileParams params(FlushPolicy flush) {
    CacheFileParams p;
    p.global_path = "/pfs/global";
    p.cache_path = "/scratch/global.cache.0";
    p.flush = flush;
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
  fault::FaultInjector injector;
};

// The three overlapping writes used by the crash tests. Final layout:
//   [0, 256K) -> pattern 77, [256K, 512K) -> 79, [512K, 1536K) -> 78.
void do_writes(CacheFile& cache) {
  ASSERT_TRUE(cache.write({0, 1 * MiB}, DataView::synthetic(77, 0, 1 * MiB)));
  ASSERT_TRUE(cache.write({512 * KiB, 1 * MiB},
                          DataView::synthetic(78, 512 * KiB, 1 * MiB)));
  ASSERT_TRUE(cache.write({256 * KiB, 256 * KiB},
                          DataView::synthetic(79, 256 * KiB, 256 * KiB)));
}

std::byte expected_byte(Offset o) {
  if (o < 256 * KiB) return DataView::pattern_byte(77, o);
  if (o < 512 * KiB) return DataView::pattern_byte(79, o);
  return DataView::pattern_byte(78, o);
}

void expect_expected_content(const ByteStore* global) {
  ASSERT_NE(global, nullptr);
  ASSERT_EQ(global->extent_end(), 1536 * KiB);
  for (Offset o = 0; o < 1536 * KiB; o += 4 * KiB) {
    ASSERT_EQ(global->byte_at(o), expected_byte(o)) << "offset " << o;
  }
  // Boundaries around the shadowed seams.
  for (const Offset o : {256 * KiB - 1, 256 * KiB, 512 * KiB - 1, 512 * KiB,
                         1536 * KiB - 1}) {
    ASSERT_EQ(global->byte_at(o), expected_byte(o)) << "offset " << o;
  }
}

TEST(Recovery, CrashDuringFlushThenReplayMatchesCleanRun) {
  // Reference: same writes, no faults, clean close.
  Fixture clean;
  clean.run([&] {
    const auto handle = clean.open_global();
    auto cache = CacheFile::open(clean.engine, clean.local_fs, clean.pfs,
                                 handle, clean.params(FlushPolicy::onclose),
                                 &clean.locks);
    ASSERT_TRUE(cache.is_ok());
    do_writes(*cache.value());
    ASSERT_TRUE(cache.value()->close());
  });

  // Crash run: the rank dies at flush time, before any extent was synced.
  Fixture f;
  obs::MetricsRegistry metrics;
  f.injector.arm(fault::FaultPlan::parse("crash=0@flush").value());
  f.run([&] {
    const auto handle = f.open_global();
    CacheFileParams p = f.params(FlushPolicy::onclose);
    p.fault = &f.injector;
    p.journal = true;
    auto opened =
        CacheFile::open(f.engine, f.local_fs, f.pfs, handle, p, &f.locks);
    ASSERT_TRUE(opened.is_ok());
    CacheFile& cache = *opened.value();
    ASSERT_TRUE(cache.journaling());
    do_writes(cache);

    const Status flushed = cache.flush();
    ASSERT_FALSE(flushed.is_ok());
    EXPECT_TRUE(cache.crashed());
    EXPECT_TRUE(cache.closed());
    // The cache file and its sidecars survive on the non-volatile device.
    EXPECT_TRUE(f.local_fs.exists("/scratch/global.cache.0"));
    EXPECT_TRUE(f.local_fs.exists(
        CacheFile::journal_path("/scratch/global.cache.0")));

    // Nothing reached the global file before the crash.
    EXPECT_EQ(f.pfs.peek("/pfs/global")->extent_end(), 0);

    // Restart: replay the journal.
    const auto report = CacheFile::recover(f.local_fs, f.pfs, handle,
                                           "/scratch/global.cache.0",
                                           &metrics);
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    EXPECT_EQ(report.value().journal_records, 3u);
    EXPECT_EQ(report.value().committed, 0u);
    EXPECT_EQ(report.value().replayed_extents, 3u);
    EXPECT_EQ(report.value().replayed_bytes, 1536 * KiB);
  });
  EXPECT_EQ(f.injector.stats().crashes, 1);
  EXPECT_EQ(metrics.counter_value(obs::names::kCacheRecoveredExtents), 3);
  EXPECT_EQ(metrics.counter_value(obs::names::kCacheRecoveredBytes),
            1536 * KiB);

  // Byte-identical global content vs the no-crash run.
  expect_expected_content(f.pfs.peek("/pfs/global"));
  expect_expected_content(clean.pfs.peek("/pfs/global"));
}

TEST(Recovery, ReplaySkipsCommittedSeqs) {
  // Hand-build a crashed cache: two journaled writes, the first committed.
  Fixture f;
  f.run([&] {
    const auto global = f.open_global();
    const std::string cache_path = "/scratch/global.cache.0";
    const auto cache = f.local_fs.open(cache_path, true, true).value();
    ASSERT_TRUE(f.local_fs
                    .write(cache, 0, DataView::synthetic(77, 0, 256 * KiB))
                    .is_ok());
    ASSERT_TRUE(f.local_fs
                    .write(cache, 256 * KiB,
                           DataView::synthetic(78, 1 * MiB, 256 * KiB))
                    .is_ok());
    ASSERT_TRUE(f.local_fs.close(cache).is_ok());

    const auto journal =
        f.local_fs.open(CacheFile::journal_path(cache_path), true).value();
    std::vector<DataView> records;
    records.push_back(encode_write_record({1, 0, 256 * KiB, 0}));
    records.push_back(encode_write_record({2, 1 * MiB, 256 * KiB, 256 * KiB}));
    ASSERT_TRUE(
        f.local_fs.write(journal, 0, DataView::concat(records)).is_ok());
    ASSERT_TRUE(f.local_fs.close(journal).is_ok());

    const auto commits =
        f.local_fs.open(CacheFile::commits_path(cache_path), true).value();
    ASSERT_TRUE(f.local_fs.write(commits, 0, encode_commit_record(1)).is_ok());
    ASSERT_TRUE(f.local_fs.close(commits).is_ok());

    const auto report =
        CacheFile::recover(f.local_fs, f.pfs, global, cache_path);
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    EXPECT_EQ(report.value().journal_records, 2u);
    EXPECT_EQ(report.value().committed, 1u);
    EXPECT_EQ(report.value().replayed_extents, 1u);
    EXPECT_EQ(report.value().replayed_bytes, 256 * KiB);
  });
  // Only seq 2 (at global offset 1 MiB) was replayed.
  const ByteStore* global = f.pfs.peek("/pfs/global");
  ASSERT_NE(global, nullptr);
  EXPECT_EQ(global->extent_end(), 1 * MiB + 256 * KiB);
  EXPECT_EQ(global->byte_at(1 * MiB + 5),
            DataView::pattern_byte(78, 1 * MiB + 5));
}

TEST(Recovery, TornTrailingJournalRecordIsIgnoredNotFatal) {
  // A crash mid-append leaves a partial record at the journal tail. Recovery
  // must replay everything before the tear and succeed — a torn tail is
  // expected crash damage, not a reason to abandon the intact records.
  Fixture f;
  f.run([&] {
    const auto global = f.open_global();
    const std::string cache_path = "/scratch/global.cache.0";
    const auto cache = f.local_fs.open(cache_path, true, true).value();
    ASSERT_TRUE(f.local_fs
                    .write(cache, 0, DataView::synthetic(77, 0, 256 * KiB))
                    .is_ok());
    ASSERT_TRUE(f.local_fs
                    .write(cache, 256 * KiB,
                           DataView::synthetic(78, 1 * MiB, 256 * KiB))
                    .is_ok());
    ASSERT_TRUE(f.local_fs.close(cache).is_ok());

    const auto journal =
        f.local_fs.open(CacheFile::journal_path(cache_path), true).value();
    std::vector<DataView> records;
    records.push_back(encode_write_record({1, 0, 256 * KiB, 0}));
    records.push_back(encode_write_record({2, 1 * MiB, 256 * KiB, 256 * KiB}));
    // The third append was interrupted 17 bytes in.
    records.push_back(
        encode_write_record({3, 2 * MiB, 256 * KiB, 512 * KiB}).slice(0, 17));
    ASSERT_TRUE(
        f.local_fs.write(journal, 0, DataView::concat(records)).is_ok());
    ASSERT_TRUE(f.local_fs.close(journal).is_ok());

    // The commits sidecar has one intact record and a torn tail too.
    const auto commits =
        f.local_fs.open(CacheFile::commits_path(cache_path), true).value();
    std::vector<DataView> commit_records;
    commit_records.push_back(encode_commit_record(1));
    commit_records.push_back(encode_commit_record(2).slice(0, 9));
    ASSERT_TRUE(
        f.local_fs.write(commits, 0, DataView::concat(commit_records))
            .is_ok());
    ASSERT_TRUE(f.local_fs.close(commits).is_ok());

    const auto report =
        CacheFile::recover(f.local_fs, f.pfs, global, cache_path);
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    // Both intact write records scanned; the torn third is ignored. The
    // torn commit record is ignored too, so seq 2 counts as uncommitted
    // and is replayed (idempotence makes the extra replay harmless).
    EXPECT_EQ(report.value().journal_records, 2u);
    EXPECT_EQ(report.value().committed, 1u);
    EXPECT_EQ(report.value().replayed_extents, 1u);
    EXPECT_EQ(report.value().replayed_bytes, 256 * KiB);
  });
  const ByteStore* global = f.pfs.peek("/pfs/global");
  ASSERT_NE(global, nullptr);
  EXPECT_EQ(global->byte_at(1 * MiB + 5),
            DataView::pattern_byte(78, 1 * MiB + 5));
}

TEST(Recovery, MissingJournalYieldsEmptyReport) {
  Fixture f;
  f.run([&] {
    const auto global = f.open_global();
    const auto report =
        CacheFile::recover(f.local_fs, f.pfs, global, "/scratch/nothing");
    ASSERT_TRUE(report.is_ok());
    EXPECT_EQ(report.value().journal_records, 0u);
    EXPECT_EQ(report.value().replayed_extents, 0u);
  });
}

TEST(Recovery, CleanCloseLeavesNoSidecarsBehind) {
  Fixture f;
  f.run([&] {
    const auto handle = f.open_global();
    CacheFileParams p = f.params(FlushPolicy::immediate);
    p.journal = true;
    auto cache =
        CacheFile::open(f.engine, f.local_fs, f.pfs, handle, p, &f.locks);
    ASSERT_TRUE(cache.is_ok());
    ASSERT_TRUE(cache.value()->journaling());
    ASSERT_TRUE(
        cache.value()->write({0, 256 * KiB}, DataView::synthetic(1, 0, 256 * KiB)));
    ASSERT_TRUE(cache.value()->close());
    EXPECT_FALSE(f.local_fs.exists("/scratch/global.cache.0"));
    EXPECT_FALSE(f.local_fs.exists(
        CacheFile::journal_path("/scratch/global.cache.0")));
    EXPECT_FALSE(f.local_fs.exists(
        CacheFile::commits_path("/scratch/global.cache.0")));
    // Nothing to recover after a clean close.
    const auto report = CacheFile::recover(f.local_fs, f.pfs, handle,
                                           "/scratch/global.cache.0");
    ASSERT_TRUE(report.is_ok());
    EXPECT_EQ(report.value().journal_records, 0u);
  });
}

}  // namespace
}  // namespace e10::cache

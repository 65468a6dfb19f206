#include "cache/cache_file.h"

#include <algorithm>
#include <set>

#include "common/log.h"
#include "fault/fault_injector.h"
#include "sim/concurrency.h"

namespace e10::cache {
namespace {

/// Device-class failures count towards quarantine; a full scratch partition
/// (no_space) or a bad argument is deterministic, not a sign of a dying
/// device.
bool is_device_error(Errc code) {
  return code == Errc::io_error || code == Errc::unavailable ||
         code == Errc::timed_out;
}

}  // namespace

Result<std::unique_ptr<CacheFile>> CacheFile::open(
    sim::Engine& engine, lfs::LocalFs& local_fs, pfs::Pfs& pfs,
    pfs::FileHandle global_handle, const CacheFileParams& params,
    LockTable* locks) {
  if (params.coherent && params.flush == FlushPolicy::none) {
    return Status::error(Errc::invalid_argument,
                         "coherent cache requires a flush policy");
  }
  if (params.coherent && locks == nullptr) {
    return Status::error(Errc::invalid_argument,
                         "coherent cache requires a lock table");
  }
  if (params.quarantine_after < 1) {
    return Status::error(Errc::invalid_argument,
                         "cache: quarantine_after must be >= 1");
  }
  if (const Status checked = check_flush_params(params.drain);
      !checked.is_ok()) {
    return checked;
  }
  const RetryPolicy& retry = params.retry;
  if (retry.max_attempts < 1 || retry.max_requeues < 0 ||
      retry.backoff_base < 0 || retry.backoff_cap < retry.backoff_base ||
      retry.jitter < 0.0) {
    return Status::error(Errc::invalid_argument, "cache: bad retry policy");
  }
  const auto handle =
      local_fs.open(params.cache_path, /*create=*/true, /*truncate=*/true);
  if (!handle.is_ok()) return handle.status();

  lfs::FileHandle journal_handle = 0;
  lfs::FileHandle commits_handle = 0;
  if (params.journal) {
    const auto journal = local_fs.open(journal_path(params.cache_path),
                                       /*create=*/true, /*truncate=*/true);
    const auto commits = local_fs.open(commits_path(params.cache_path),
                                       /*create=*/true, /*truncate=*/true);
    if (journal.is_ok() && commits.is_ok()) {
      journal_handle = journal.value();
      commits_handle = commits.value();
    } else {
      // A cache without its journal is still a working cache — it just
      // cannot replay after a crash. Degrading beats failing the open.
      log::warn("cache", "journal sidecars unavailable for ",
                params.cache_path, ", continuing without crash recovery");
      if (journal.is_ok()) (void)local_fs.close(journal.value());
      if (commits.is_ok()) (void)local_fs.close(commits.value());
    }
  }
  return std::unique_ptr<CacheFile>(
      new CacheFile(engine, local_fs, pfs, global_handle, params, locks,
                    handle.value(), journal_handle, commits_handle));
}

CacheFile::CacheFile(sim::Engine& engine, lfs::LocalFs& local_fs,
                     pfs::Pfs& pfs, pfs::FileHandle global_handle,
                     const CacheFileParams& params, LockTable* locks,
                     lfs::FileHandle cache_handle,
                     lfs::FileHandle journal_handle,
                     lfs::FileHandle commits_handle)
    : engine_(engine),
      local_fs_(local_fs),
      pfs_(pfs),
      global_handle_(global_handle),
      params_(params),
      locks_(locks),
      cache_handle_(cache_handle),
      extent_map_var_(engine, "cache.extent_map:" + params.cache_path),
      journal_handle_(journal_handle),
      commits_handle_(commits_handle) {
  if (params.metrics != nullptr) {
    // Instrument resolution mutates the shared registry from every rank's
    // open path; claim the registry monitor for the checker.
    const sim::MonitorGuard monitor(engine, params.metrics,
                                    obs::names::kMetricsMonitor);
    sim::shared_access(engine, params.metrics, obs::names::kMetricsRegistryVar,
                       /*is_write=*/true, E10_SITE);
    writes_counter_ = &params.metrics->counter(obs::names::kCacheWrites);
    bytes_counter_ = &params.metrics->counter(obs::names::kCacheBytes);
    write_hist_ = &params.metrics->histogram(
        obs::names::kCacheWriteBytesHist, obs::byte_size_bounds());
  }
}

CacheFile::~CacheFile() {
  // close() must have run inside a simulated process; the destructor only
  // verifies nothing leaked. A still-running sync thread at destruction
  // would deadlock the engine, which surfaces the bug loudly in tests.
}

Status CacheFile::ensure_allocated(Offset needed_end) {
  if (needed_end <= allocated_) return Status::ok();
  // Round the reservation up to the allocation chunk (ADIOI_Cache_alloc).
  const Offset target =
      ((needed_end + params_.alloc_chunk - 1) / params_.alloc_chunk) *
      params_.alloc_chunk;
  const Status s = local_fs_.fallocate(cache_handle_, target);
  if (!s.is_ok()) return s;
  allocated_ = target;
  return Status::ok();
}

void CacheFile::note_device_error(Errc code) {
  if (!is_device_error(code)) return;
  ++consecutive_device_errors_;
  if (degraded_ || consecutive_device_errors_ < params_.quarantine_after) {
    return;
  }
  degraded_ = true;
  log::error("cache", "local device quarantined after ",
             consecutive_device_errors_, " consecutive errors (rank ",
             params_.rank, "); writes fall back to the global file");
  if (params_.metrics != nullptr) {
    const sim::MonitorGuard monitor(engine_, params_.metrics,
                                    obs::names::kMetricsMonitor);
    sim::shared_access(engine_, params_.metrics,
                       obs::names::kMetricsRegistryVar,
                       /*is_write=*/true, E10_SITE);
    params_.metrics->counter(obs::names::kCacheDegraded).increment();
  }
  if (params_.tracer != nullptr && params_.tracer->enabled()) {
    const int track = params_.tracer->track(
        "cache r" + std::to_string(params_.rank) + " " + params_.global_path,
        2000 + params_.rank);
    params_.tracer->instant(track, "cache degraded");
  }
}

void CacheFile::hand_over(SyncRequest request) {
  if (sync_ == nullptr) {
    // The first request starts the sync thread (ADIOI_Sync_thread_start):
    // a rank that caches nothing, like a two-phase non-aggregator, never
    // pays for one. Its worker starts at the clock of this hand-over.
    sync_ = std::make_unique<SyncThread>(
        engine_, local_fs_, cache_handle_, pfs_, global_handle_,
        params_.global_path, locks_, params_.drain, params_.retry,
        journaling() ? std::optional(commits_handle_) : std::nullopt,
        params_.metrics, params_.tracer, params_.rank);
  }
  sync_->enqueue(std::move(request));
}

bool CacheFile::crash_now(bool in_flush) {
  if (params_.fault == nullptr) return false;
  return params_.fault->crash_due(params_.rank, engine_.now(), in_flush);
}

Status CacheFile::write(const Extent& global, const DataView& data) {
  const Result<Time> done = iwrite(global, data);
  if (!done.is_ok()) return done.status();
  engine_.advance_to(done.value());
  return Status::ok();
}

Result<Time> CacheFile::iwrite(const Extent& global, const DataView& data) {
  if (closed_) {
    return Status::error(Errc::invalid_argument, "cache file closed");
  }
  if (crash_now(/*in_flush=*/false)) {
    simulate_crash();
    return Status::error(Errc::unavailable,
                         "cache: simulated crash of rank " +
                             std::to_string(params_.rank));
  }
  if (degraded_) {
    // Quarantined device: fail fast so the caller writes through to the
    // global file instead of queueing more work onto failing media.
    return Status::error(Errc::unavailable,
                         "cache: local device quarantined (rank " +
                             std::to_string(params_.rank) + ")");
  }
  if (global.length != data.size()) {
    return Status::error(Errc::invalid_argument,
                         "cache write: extent/data size mismatch");
  }
  if (data.empty()) return engine_.now();

  if (const Status s = ensure_allocated(append_cursor_ + data.size());
      !s.is_ok()) {
    return s;  // caller falls back to a direct global-file write
  }
  if (params_.coherent) {
    locks_->lock(params_.global_path, global);
  }
  // A failed device write counts towards quarantine and drops the lock.
  const auto fail = [&](const Status& failed) {
    note_device_error(failed.code());
    if (params_.coherent) locks_->unlock(params_.global_path, global);
    return failed;
  };
  const Offset cache_offset = append_cursor_;
  const auto written = local_fs_.write_async(cache_handle_, cache_offset, data);
  if (!written.is_ok()) return fail(written.status());
  Time completion = written.value();
  // Journal before the extent becomes visible: an extent the journal does
  // not cover cannot be replayed after a crash, so a failed append fails
  // the cache write and the caller writes through to the global file. The
  // sidecar append shares the device's FIFO timeline, so the completion
  // time covers both the data and its journal record.
  std::uint64_t seq = 0;
  if (journaling()) {
    const WriteRecord record{next_seq_, global.offset, global.length,
                             cache_offset};
    const auto appended = local_fs_.write_async(
        journal_handle_, journal_cursor_, encode_write_record(record));
    if (!appended.is_ok()) return fail(appended.status());
    completion = std::max(completion, appended.value());
    seq = next_seq_++;
    journal_cursor_ += kWriteRecordBytes;
  }
  consecutive_device_errors_ = 0;
  append_cursor_ += global.length;
  if (writes_counter_ != nullptr) {
    writes_counter_->increment();
    bytes_counter_->add(global.length);
    write_hist_->observe(global.length);
  }

  // Update the layout map; this write shadows any older overlapping entry.
  E10_SHARED_WRITE(extent_map_var_);
  apply_extent(extent_map_, global, cache_offset, seq);

  if (params_.flush == FlushPolicy::none) {
    // Theoretical-bandwidth mode: data stays in the cache.
    if (params_.coherent) locks_->unlock(params_.global_path, global);
    return completion;
  }

  SyncRequest request;
  request.global = global;
  request.cache_offset = cache_offset;
  request.seq = seq;
  request.grequest = mpi::Request::grequest(engine_);
  request.release_lock = params_.coherent;
  outstanding_.push_back(request.grequest);
  if (params_.flush == FlushPolicy::immediate) {
    hand_over(std::move(request));
  } else {
    deferred_.push_back(std::move(request));
  }
  return completion;
}

std::optional<DataView> CacheFile::try_read(const Extent& global) {
  if (closed_ || degraded_ || global.empty()) return std::nullopt;
  // Collect the cache locations covering [global.offset, global.end());
  // bail out on the first gap.
  E10_SHARED_READ(extent_map_var_);
  std::vector<std::pair<Offset, Offset>> runs;  // (cache offset, length)
  Offset cursor = global.offset;
  auto it = extent_map_.lower_bound(cursor);
  if (it != extent_map_.begin()) {
    auto prev = std::prev(it);
    if (prev->offset + prev->extent.length > cursor) it = prev;
  }
  while (cursor < global.end()) {
    if (it == extent_map_.end() || it->offset > cursor) {
      return std::nullopt;  // gap: extent not fully cached
    }
    const Offset skip = cursor - it->offset;
    const Offset take =
        std::min(global.end(), it->offset + it->extent.length) - cursor;
    runs.emplace_back(it->extent.cache_offset + skip, take);
    cursor += take;
    ++it;
  }
  std::vector<DataView> parts;
  parts.reserve(runs.size());
  for (const auto& [cache_off, len] : runs) {
    auto piece = local_fs_.read(cache_handle_, cache_off, len);
    if (!piece.is_ok() || piece.value().size() != len) return std::nullopt;
    parts.push_back(std::move(piece).value());
  }
  return DataView::concat(parts);
}

Status CacheFile::flush() {
  if (closed_) return Status::ok();
  if (crash_now(/*in_flush=*/true)) {
    simulate_crash();
    return Status::error(Errc::unavailable,
                         "cache: rank " + std::to_string(params_.rank) +
                             " crashed during flush");
  }
  for (SyncRequest& request : deferred_) {
    hand_over(std::move(request));
  }
  deferred_.clear();
  mpi::Request::wait_all(outstanding_);
  outstanding_.clear();
  if (sync_ == nullptr) return Status::ok();  // nothing was handed over
  // Abandoned extents completed their grequests (so the wait above cannot
  // hang) but never became durable; surface each batch exactly once. The
  // worker may still be running, so go through the locked accessor.
  const std::uint64_t abandoned = sync_->abandoned_count();
  if (abandoned > reported_abandoned_) {
    const std::uint64_t lost = abandoned - reported_abandoned_;
    reported_abandoned_ = abandoned;
    return Status::error(Errc::io_error,
                         "cache: " + std::to_string(lost) +
                             " extent(s) could not be made durable");
  }
  return Status::ok();
}

Status CacheFile::close() {
  if (closed_) return Status::ok();
  Status first = flush();
  if (closed_) return first;  // the flush hit a crash spec; already torn down
  // A flush error (abandoned extents) must not leak the sync thread or the
  // handles — teardown always runs, the first error is reported. A thread
  // that never started still reports its (zero) totals.
  if (sync_ != nullptr) {
    sync_->shutdown_and_join();
  } else {
    fold_sync_totals(engine_, params_.metrics);
  }
  const auto keep_first = [&first](const Status& s) {
    if (first.is_ok() && !s.is_ok()) first = s;
  };
  keep_first(local_fs_.close(cache_handle_));
  if (journaling()) {
    keep_first(local_fs_.close(journal_handle_));
    keep_first(local_fs_.close(commits_handle_));
  }
  closed_ = true;
  if (params_.discard) {
    keep_first(local_fs_.unlink(params_.cache_path));
    if (journaling()) {
      keep_first(local_fs_.unlink(journal_path(params_.cache_path)));
      keep_first(local_fs_.unlink(commits_path(params_.cache_path)));
    }
  }
  return first;
}

void CacheFile::simulate_crash() {
  if (closed_) return;
  log::error("cache", "simulating crash of rank ", params_.rank, " (",
             params_.cache_path, " survives on the local device)");
  // The worker stops doing I/O and only completes/releases what is queued;
  // never-dispatched deferred requests are completed here for the same
  // reason — nothing may block on a dead rank.
  if (sync_ != nullptr) {
    sync_->cancel_drain_and_join();
  } else {
    fold_sync_totals(engine_, params_.metrics);
  }
  for (SyncRequest& request : deferred_) {
    if (request.release_lock && locks_ != nullptr) {
      locks_->unlock(params_.global_path, request.global);
    }
    if (request.grequest.valid()) request.grequest.complete();
  }
  deferred_.clear();
  mpi::Request::wait_all(outstanding_);
  outstanding_.clear();
  // Handles die with the process; the files themselves survive on the
  // non-volatile device — that is the paper's whole durability argument.
  (void)local_fs_.close(cache_handle_);
  if (journaling()) {
    (void)local_fs_.close(journal_handle_);
    (void)local_fs_.close(commits_handle_);
  }
  E10_SHARED_WRITE(extent_map_var_);
  extent_map_.clear();
  closed_ = true;
  crashed_ = true;
  if (params_.tracer != nullptr && params_.tracer->enabled()) {
    const int track = params_.tracer->track(
        "cache r" + std::to_string(params_.rank) + " " + params_.global_path,
        2000 + params_.rank);
    params_.tracer->instant(track, "rank crash");
  }
}

Result<RecoveryReport> CacheFile::recover(lfs::LocalFs& local_fs,
                                          pfs::Pfs& pfs,
                                          pfs::FileHandle global_handle,
                                          const std::string& cache_path,
                                          obs::MetricsRegistry* metrics) {
  RecoveryReport report;
  const std::string journal = journal_path(cache_path);
  const std::string commits = commits_path(cache_path);
  if (!local_fs.exists(journal)) {
    // Nothing journaled, nothing to replay (also the clean-shutdown case
    // where close() already unlinked the sidecars).
    return report;
  }

  // Scan the write journal. A crash can truncate the tail mid-record;
  // scan_write_records keeps everything before the damage.
  auto journal_handle = local_fs.open(journal, /*create=*/false);
  if (!journal_handle.is_ok()) return journal_handle.status();
  std::vector<WriteRecord> records;
  {
    const auto size = local_fs.file_size(journal_handle.value());
    if (!size.is_ok()) {
      (void)local_fs.close(journal_handle.value());
      return size.status();
    }
    auto bytes = local_fs.read(journal_handle.value(), 0, size.value());
    (void)local_fs.close(journal_handle.value());
    if (!bytes.is_ok()) return bytes.status();
    records = scan_write_records(bytes.value());
    // A crash can interrupt an append mid-record: a torn or truncated tail
    // is expected damage, not a recovery failure. Everything before it is
    // intact (records are fixed-size and appended in order) — warn and
    // replay what survived.
    const Offset parsed =
        static_cast<Offset>(records.size()) * kWriteRecordBytes;
    if (parsed < size.value()) {
      log::warn("cache", "recover: ignoring ", size.value() - parsed,
                " trailing byte(s) of torn journal record in ", journal,
                " (crash mid-append); replaying the ", records.size(),
                " intact record(s)");
    }
  }
  report.journal_records = records.size();
  if (records.empty()) return report;

  // Committed seqs reached the global file before the crash; replaying
  // them would be harmless (idempotent) but pointless.
  std::set<std::uint64_t> committed;
  if (local_fs.exists(commits)) {
    auto commits_handle = local_fs.open(commits, /*create=*/false);
    if (commits_handle.is_ok()) {
      const auto size = local_fs.file_size(commits_handle.value());
      if (size.is_ok()) {
        auto bytes = local_fs.read(commits_handle.value(), 0, size.value());
        if (bytes.is_ok()) {
          const std::vector<std::uint64_t> seqs =
              scan_commit_records(bytes.value());
          // Same tolerance as the write journal: a torn trailing commit
          // record only means one extra (idempotent) replay.
          const Offset parsed =
              static_cast<Offset>(seqs.size()) * kCommitRecordBytes;
          if (parsed < size.value()) {
            log::warn("cache", "recover: ignoring ", size.value() - parsed,
                      " trailing byte(s) of torn commit record in ", commits);
          }
          for (std::uint64_t seq : seqs) committed.insert(seq);
        }
      }
      (void)local_fs.close(commits_handle.value());
    }
  }
  report.committed = committed.size();

  // Rebuild the extent map with the live path's shadowing rules, then push
  // every surviving fragment of an uncommitted write back to the PFS.
  ExtentMap map;
  for (const WriteRecord& record : records) {
    apply_extent(map, Extent{record.global_offset, record.length},
                 record.cache_offset, record.seq);
  }
  auto cache_handle = local_fs.open(cache_path, /*create=*/false);
  if (!cache_handle.is_ok()) return cache_handle.status();
  Status failed = Status::ok();
  for (const auto& [global_offset, extent] : map) {
    if (committed.contains(extent.seq)) continue;
    auto data =
        local_fs.read(cache_handle.value(), extent.cache_offset, extent.length);
    if (!data.is_ok()) {
      failed = data.status();
      break;
    }
    if (data.value().size() != extent.length) {
      failed = Status::error(Errc::io_error,
                             "recover: cache file shorter than journal");
      break;
    }
    const Status synced =
        pfs.write_durable(global_handle, global_offset, data.value());
    if (!synced.is_ok()) {
      failed = synced;
      break;
    }
    ++report.replayed_extents;
    report.replayed_bytes += extent.length;
  }
  (void)local_fs.close(cache_handle.value());
  if (!failed.is_ok()) return failed;
  log::info("cache", "recovered ", cache_path, ": replayed ",
            report.replayed_extents, " extent(s), ", report.replayed_bytes,
            " bytes (", report.committed, " of ", report.journal_records,
            " records were already durable)");
  if (metrics != nullptr) {
    metrics->counter(obs::names::kCacheRecoveredExtents)
        .add(static_cast<std::int64_t>(report.replayed_extents));
    metrics->counter(obs::names::kCacheRecoveredBytes)
        .add(report.replayed_bytes);
  }
  return report;
}

}  // namespace e10::cache

// Persistent local cache file for collective write data (paper §III).
//
// A CacheFile is the per-rank cache of one open MPI file: writes destined
// for the global file are appended (log-structured, so the SSD always
// streams sequentially) to a file on the node-local NVM device, space is
// reserved with fallocate (ADIOI_Cache_alloc), and a SyncRequest carrying a
// generalized MPI request is created for every written extent
// (ADIOI_GEN_WriteContig). Depending on the flush policy, requests are
// dispatched to the background SyncThread immediately or at flush/close
// time (ADIOI_GEN_Flush / ADIO_Close).
//
// Robustness (the paper's durability argument, §III): with journaling
// enabled each write also appends a WriteRecord to a sidecar journal, so
// that after a simulated rank crash CacheFile::recover() can replay every
// extent that never reached the global file. A failing local device is
// quarantined after a run of consecutive device errors — the cache degrades
// to fast-fail and callers write through to the PFS — and a FaultPlan crash
// takes effect through the write/flush hooks.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/flush_policy.h"
#include "cache/journal.h"
#include "cache/lock_table.h"
#include "cache/sync_thread.h"
#include "common/status.h"
#include "lfs/local_fs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pfs/pfs.h"
#include "sim/engine.h"

namespace e10::fault {
class FaultInjector;
}

namespace e10::cache {

struct CacheFileParams {
  std::string global_path;  // the global file this cache shadows
  std::string cache_path;   // pathname of the cache file on the local FS
  FlushPolicy flush = FlushPolicy::immediate;
  bool coherent = false;  // hold extent locks until data is persistent
  bool discard = true;    // remove the cache file on close
  /// fallocate granularity: space is reserved in chunks this big so that
  /// most writes pay no allocation cost.
  Offset alloc_chunk = 64 * units::MiB;
  /// The sync thread's drain: staging size, flush streams, coalescing and
  /// stripe alignment (docs/flush_scheduler.md).
  FlushSchedulerParams drain;
  /// Record journal for crash recovery: append one WriteRecord per cache
  /// write to `<cache_path>.journal` and one CommitRecord per durable
  /// extent to `<cache_path>.commits`. Off by default — the sidecar
  /// appends cost local-device time.
  bool journal = false;
  /// Sync-thread retry/backoff knobs for transient global-write failures.
  RetryPolicy retry;
  /// Consecutive local-device errors (io_error/unavailable/timed_out; a
  /// deterministic no_space does not count) before the device is
  /// quarantined and the cache degrades to fast-fail.
  int quarantine_after = 3;
  /// Scenario injector (optional): supplies the rank-crash schedule checked
  /// on the write and flush paths.
  fault::FaultInjector* fault = nullptr;
  /// Observability (all optional): counters/histograms land in `metrics`,
  /// the sync thread traces onto its own `tracer` track, `rank` labels both.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  int rank = 0;
};

/// What CacheFile::recover() found and replayed after a crash.
struct RecoveryReport {
  std::uint64_t journal_records = 0;  // WriteRecords scanned
  std::uint64_t committed = 0;        // seqs the sync thread made durable
  std::uint64_t replayed_extents = 0;
  Offset replayed_bytes = 0;
};

class CacheFile {
 public:
  /// Opens (creates) the cache file and its journal sidecars, then starts
  /// the sync thread. Fails with invalid_argument on bad params, or when
  /// the local file system cannot host the cache file — the caller then
  /// reverts to standard (uncached) operation, as the paper's OpenColl does.
  static Result<std::unique_ptr<CacheFile>> open(sim::Engine& engine,
                                                 lfs::LocalFs& local_fs,
                                                 pfs::Pfs& pfs,
                                                 pfs::FileHandle global_handle,
                                                 const CacheFileParams& params,
                                                 LockTable* locks);

  ~CacheFile();
  CacheFile(const CacheFile&) = delete;
  CacheFile& operator=(const CacheFile&) = delete;

  /// Writes `data` for global-file extent `global` into the cache and
  /// creates the sync request, without charging the local-device time to
  /// the caller: the returned completion time says when the cache (and,
  /// with journaling, the journal sidecar) has the data and the source
  /// buffer may be reused. The sync thread's staging reads serialize after
  /// the in-flight write on the device's FIFO timeline, so the sync request
  /// is dispatched (or deferred, per the flush policy) at issue time. In
  /// coherent mode the extent is locked until the sync thread makes it
  /// persistent. Fails fast once the local device is quarantined — the
  /// caller falls back to a direct global write.
  Result<Time> iwrite(const Extent& global, const DataView& data);

  /// Blocking write: iwrite() joined at its completion time.
  Status write(const Extent& global, const DataView& data);

  /// Serves a read from the cache if (and only if) the extent is fully
  /// covered by data this cache holds; returns nullopt otherwise. Charges
  /// local-device read time. This implements the paper's §VI future work
  /// ("support cache reading operations"): the per-extent map the cache
  /// already keeps is exactly the layout metadata §III-B says reads need.
  /// Callers must understand the staleness caveat: the cache knows nothing
  /// about writes other ranks made to the same extent afterwards.
  std::optional<DataView> try_read(const Extent& global);

  /// ADIOI_GEN_Flush: dispatches deferred requests (onclose policy) and
  /// waits for every outstanding sync request to complete. Reports
  /// Errc::io_error if any extent was abandoned (not made durable) since
  /// the previous flush — waiters never hang on a lost extent, they get
  /// told about it here instead.
  Status flush();

  /// Flush, stop the sync thread, close and (per discard flag) remove the
  /// cache file and its journal sidecars. Idempotent, and tears everything
  /// down even when the flush reports an error — a failed flush must never
  /// leak the sync thread. Returns the first error encountered.
  Status close();

  /// Simulated rank crash: the sync thread stops doing I/O and only
  /// releases/completes the remaining requests (nothing may hang on a dead
  /// rank), handles are dropped, and the cache file plus journal sidecars
  /// survive on the non-volatile device for recover() to replay.
  void simulate_crash();

  /// Post-crash replay (run from a fresh simulated process): scans the
  /// journal sidecars of `cache_path`, rebuilds the extent map, and writes
  /// every extent whose sequence number was never committed back to the
  /// global file. Idempotent — re-syncing an already-durable extent writes
  /// the same bytes. A missing journal yields an empty report.
  static Result<RecoveryReport> recover(lfs::LocalFs& local_fs, pfs::Pfs& pfs,
                                        pfs::FileHandle global_handle,
                                        const std::string& cache_path,
                                        obs::MetricsRegistry* metrics = nullptr);

  /// Journal sidecar paths for a given cache file.
  static std::string journal_path(const std::string& cache_path) {
    return cache_path + ".journal";
  }
  static std::string commits_path(const std::string& cache_path) {
    return cache_path + ".commits";
  }

  const SyncStats& sync_stats() const { return sync_->stats(); }
  const CacheFileParams& params() const { return params_; }
  bool closed() const { return closed_; }
  bool crashed() const { return crashed_; }
  bool degraded() const { return degraded_; }
  bool journaling() const { return journal_handle_ != 0; }

 private:
  /// `journal_handle`/`commits_handle` are the open journal sidecars.
  CacheFile(sim::Engine& engine, lfs::LocalFs& local_fs, pfs::Pfs& pfs,
            pfs::FileHandle global_handle, const CacheFileParams& params,
            LockTable* locks, lfs::FileHandle cache_handle,
            lfs::FileHandle journal_handle, lfs::FileHandle commits_handle);

  Status ensure_allocated(Offset needed_end);
  /// Quarantine bookkeeping for a failed local-device operation.
  void note_device_error(Errc code);
  bool crash_now(bool in_flush);

  sim::Engine& engine_;
  lfs::LocalFs& local_fs_;
  CacheFileParams params_;
  LockTable* locks_;
  lfs::FileHandle cache_handle_;
  std::unique_ptr<SyncThread> sync_;
  Offset append_cursor_ = 0;
  Offset allocated_ = 0;
  // Layout map: global-file offset -> location in the cache file. Later
  // writes of the same extent shadow earlier ones (the map keeps the
  // freshest copy, like the log-structured cache itself). Registered with
  // the concurrency checker: only the owning rank may touch it (the sync
  // thread reads raw cache offsets from its requests, never the map).
  sim::SharedVar extent_map_var_;
  ExtentMap extent_map_;
  std::vector<SyncRequest> deferred_;      // onclose policy, not yet sent
  std::vector<mpi::Request> outstanding_;  // dispatched, possibly incomplete
  // Journal sidecars: both open, or both 0 without crash recovery.
  lfs::FileHandle journal_handle_;
  lfs::FileHandle commits_handle_;
  Offset journal_cursor_ = 0;
  std::uint64_t next_seq_ = 1;  // seq 0 is reserved for "not journaled"
  // Quarantine state.
  int consecutive_device_errors_ = 0;
  bool degraded_ = false;
  std::uint64_t reported_abandoned_ = 0;  // abandoned count already surfaced
  // Resolved once; registry references stay valid for its lifetime.
  obs::Counter* writes_counter_ = nullptr;
  obs::Counter* bytes_counter_ = nullptr;
  obs::Histogram* write_hist_ = nullptr;
  bool closed_ = false;
  bool crashed_ = false;
};

}  // namespace e10::cache

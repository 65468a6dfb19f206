// Background cache synchronisation (ADIOI_Sync_thread_start, paper §III-A).
//
// One SyncThread runs per open cached file per rank, as a dedicated
// simulated process (the paper uses a POSIX thread). It consumes sync
// requests from a queue and drains them through the FlushScheduler
// (flush_scheduler.h): adjacent requests coalesce into batches, each batch
// is split into stripe-aligned staging dispatches, and up to
// `e10_sync_streams` durable writes stay in flight concurrently. When a
// request's extent is persistent in the global file its generalized MPI
// request completes (MPI_Grequest_complete) — which is what
// ADIOI_GEN_Flush later waits on. Completion is deferred, not rushed: a
// drained batch waits for its writes' media time off the critical path
// (free once the clock passes it; overlapping the idle inbox wait when the
// queue empties) instead of stalling the drain loop on a join-all tail
// after every batch.
//
// Transient failures (an unreachable data server, an injected timeout) are
// retried in place with capped exponential backoff and deterministic jitter
// over virtual time; a request that exhausts its attempts goes to the back
// of the queue (resuming past the bytes already durable), and one that
// exhausts its requeues is abandoned — its grequest still completes (so
// flush/close never hang) and the abandonment is reported through SyncStats
// for CacheFile::flush() to surface.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/flush_scheduler.h"
#include "cache/lock_table.h"
#include "cache/sync_thread_types.h"
#include "common/extent.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_safety.h"
#include "common/units.h"
#include "lfs/local_fs.h"
#include "mpi/request.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pfs/pfs.h"
#include "sim/concurrency.h"
#include "sim/engine.h"
#include "sim/fifo.h"
#include "sim/mailbox.h"
#include "sim/sync.h"

namespace e10::cache {

class SyncThread {
 public:
  /// Builds the thread and spawns its worker process (call from a simulated
  /// process). `drain` sets the flush scheduler; `retry` the backoff ladder,
  /// whose jitter stream is seeded from (rank, global path) so it is
  /// reproducible per thread. With `commits_handle` set, a CommitRecord for
  /// each fully durable extent's seq is appended to that journal sidecar.
  /// Either sink may be null; `rank` labels this thread's trace track, and
  /// at shutdown the accumulated SyncStats are folded into `metrics` under
  /// the cache.sync.* names. The settings are not checked here:
  /// CacheFile::open checks them, and the FlushScheduler throws on bad
  /// drain settings.
  SyncThread(sim::Engine& engine, lfs::LocalFs& local_fs,
             lfs::FileHandle cache_handle, pfs::Pfs& pfs,
             pfs::FileHandle global_handle, std::string global_path,
             LockTable* locks, const FlushSchedulerParams& drain,
             const RetryPolicy& retry,
             std::optional<lfs::FileHandle> commits_handle,
             obs::MetricsRegistry* metrics, obs::Tracer* tracer, int rank);

  SyncThread(const SyncThread&) = delete;
  SyncThread& operator=(const SyncThread&) = delete;

  /// Queues a sync request; never blocks the caller (the queue-depth
  /// accounting takes the stats mutex briefly, so the caller must not
  /// hold it).
  void enqueue(SyncRequest request) E10_EXCLUDES(stats_mutex_);

  /// Sends the shutdown sentinel and joins the worker: all previously
  /// enqueued requests are drained first.
  void shutdown_and_join();

  /// Crash path: the worker stops doing I/O and only completes/releases the
  /// remaining requests (a dead rank's waiters must not hang), then joins.
  /// Queued extents stay un-synced — exactly what recover() replays.
  void cancel_drain_and_join();

  /// Point-in-time copy of the counters, safe to call from the owning rank
  /// while the worker runs (takes the stats mutex).
  SyncStats stats_snapshot() E10_EXCLUDES(stats_mutex_);

  /// Requests given up on since start; the flush path polls this while the
  /// worker is live, so it locks and is checker-instrumented.
  std::uint64_t abandoned_count() E10_EXCLUDES(stats_mutex_);

  /// Borrowed view of the counters. Only safe once the worker has joined
  /// (shutdown_and_join / cancel_drain_and_join); live readers must use
  /// stats_snapshot(). Excluded from the static analysis for that reason.
  const SyncStats& stats() const E10_NO_THREAD_SAFETY_ANALYSIS {
    return stats_;
  }

 private:
  /// What one gather attempt produced.
  enum class Gather {
    kBatch,     ///< `batch` holds at least one request
    kEmpty,     ///< nothing queued right now (only when `may_block` is off)
    kShutdown,  ///< the shutdown sentinel; the worker should exit
  };
  /// A drained batch whose writes are still in flight: its members'
  /// completion (commit records, lock releases, grequests) waits until the
  /// clock passes `done_time` — the media-durable time of its last write.
  struct DeferredBatch {
    std::vector<SyncRequest> members;
    Time done_time = 0;
    /// When the batch's drain started (the causal bridge's issue time).
    Time issued = 0;
  };

  void run();
  /// Gathers one batch for the scheduler: the first request (blocking only
  /// when `may_block`) plus, with coalescing on, everything already queued
  /// whose remaining extent does not overlap the batch's coverage.
  Gather gather_batch(std::vector<SyncRequest>& batch, bool may_block);
  /// Completes one finished member: journal commit, lock release,
  /// grequest completion.
  void finish_member(SyncRequest& member, bool durable);
  /// Completes deferred batches the clock has already passed — free, no
  /// waiting. FIFO so commit records keep queue order.
  void reap_deferred();
  /// Waits out every deferred batch's `done_time` and completes them all.
  /// Called when the queue idles, before a failure's requeue/abandon
  /// handling (completion order), and at shutdown.
  void finalize_deferred();
  void fold_stats_and_join();

  sim::Engine& engine_;
  lfs::LocalFs& local_fs_;
  std::string global_path_;
  LockTable* locks_;
  void note_queue_depth(std::size_t depth) E10_EXCLUDES(stats_mutex_);

  sim::Mailbox<SyncRequest> inbox_;
  sim::ProcessHandle handle_;
  /// The counters are written by the worker process and read by the owning
  /// rank mid-run (queue depth from enqueue(), abandoned from flush()) —
  /// in the paper's pthread implementation that is a data race, surfaced
  /// by the lockset checker and fixed by guarding them with a mutex.
  /// Acquisition order: always AFTER any held extent lock (a coherent-mode
  /// rank enqueues while its written extent is locked) — declared in
  /// analysis::declared_lock_order() and cross-checked against the runtime
  /// order graph, since the clang attributes cannot name extent locks.
  sim::SimMutex stats_mutex_;
  SyncStats stats_ E10_GUARDED_BY(stats_mutex_);
  /// Checker registrations: the stats block and the request queue. The
  /// queue is accessed under a per-inbox monitor (Mailbox is engine-atomic
  /// and safe by construction; the monitor states that discipline).
  sim::SharedVar stats_var_;
  sim::SharedVar inbox_var_;
  std::string inbox_monitor_name_;
  RetryPolicy retry_;
  FlushScheduler scheduler_;
  LazyRng backoff_rng_;
  /// A drained request that overlapped the gathering batch's coverage: it
  /// must dispatch after that batch (queue order resolves shadowing), so
  /// it waits here and seeds the next batch.
  std::optional<SyncRequest> pending_;
  /// Successfully drained batches awaiting their writes' media time.
  sim::Fifo<DeferredBatch> deferred_;
  bool shutdown_seen_ = false;  // sentinel drained while gathering
  bool cancelled_ = false;      // set by cancel_drain_and_join()
  std::optional<lfs::FileHandle> commits_handle_;
  Offset commits_cursor_ = 0;
  obs::MetricsRegistry* metrics_;
  obs::Tracer* tracer_;
  int rank_;
  int track_ = -1;  // trace track id, registered lazily by run()
};

}  // namespace e10::cache

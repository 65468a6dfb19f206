// Flush scheduler: coalesced, stripe-aligned, multi-stream draining of the
// NVM cache to the parallel file system (docs/flush_scheduler.md).
//
// The paper's win lives or dies on how fast the sync thread can drain the
// cache — its "theoretical" case assumes the flush is fully hidden. The
// scheduler sits between the sync thread's inbox and the durable PFS write
// and turns the serial read-back→write loop into a bandwidth-shaped drain:
//
//   1. COALESCE: queued SyncRequests whose remaining global extents are
//      adjacent are merged into one batch, so many small ext2ph rounds
//      become few large staged writes (request aggregation à la Kang et
//      al.; access coalescing à la Thakur et al.). Requests that *overlap*
//      earlier batch coverage end the batch instead — batches dispatch in
//      queue order, so a later write still shadows an earlier one exactly
//      as the serial loop did.
//   2. STRIPE-ALIGN: each dispatch (one staging-buffer fill, one durable
//      write) is split on PFS stripe boundaries, so no flush write crosses
//      a data server.
//   3. STREAM: up to `streams` dispatches stay in flight concurrently over
//      Pfs::write_durable_async; the completion loop joins the oldest
//      stream before its staging buffer is refilled, overlapping the
//      staging reads (local device) with the durable writes (PFS devices)
//      and the data servers with each other.
//
// Fault-tolerance semantics are unchanged: retryable staging-read/global-
// write failures back off and retry in place (the shared attempt budget of
// one dispatch), every byte already issued durably is recorded in the
// member's `synced` resume offset so a requeued request never re-sends it,
// and the sync thread keeps the requeue/abandon ladder, journal commit
// order and crash-replay behaviour on top of the returned outcome.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/sync_thread_types.h"
#include "common/extent.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_safety.h"
#include "common/units.h"
#include "lfs/local_fs.h"
#include "pfs/pfs.h"
#include "sim/async.h"
#include "sim/concurrency.h"
#include "sim/engine.h"

namespace e10::cache {

/// A sync thread's drain settings, filled once from the file's hints by
/// adio::open_coll and carried unchanged through CacheFile and SyncThread.
struct FlushSchedulerParams {
  /// Concurrent in-flight durable writes per sync thread (>= 1,
  /// e10_sync_streams). One staging buffer exists per stream; a buffer is
  /// refilled only after the write it fed has been joined. 1 issues in the
  /// serial drain's order.
  int streams = 4;
  /// Merge adjacent queued requests into shared dispatches
  /// (e10_flush_coalesce_flag). Off, every request drains on its own (the
  /// pre-scheduler behaviour).
  bool coalesce = true;
  /// The global file's PFS stripe unit: dispatches are split on multiples
  /// of it so no flush write crosses a data server. 0 disables alignment
  /// splitting.
  Offset stripe_unit = 0;
  /// Staging-buffer size (ind_wr_buffer_size): the capacity of one
  /// dispatch.
  Offset staging_bytes = 512 * units::KiB;
};

/// The one check of a drain's settings: ok, or invalid_argument naming the
/// bad value. CacheFile::open returns it; the FlushScheduler constructor
/// throws std::logic_error on it.
Status check_flush_params(const FlushSchedulerParams& params);

/// Upper bound on requests gathered into one batch (plan-cost bound).
inline constexpr std::size_t kMaxBatchMembers = 256;

/// One contiguous slice of a dispatch, attributed to the batch member whose
/// cached bytes it carries.
struct DispatchPiece {
  std::size_t member = 0;   // index into the batch
  Offset cache_offset = 0;  // where the slice sits in the cache file
  Extent global;            // the slice of the global file
};

/// One staging-buffer fill = one durable PFS write: contiguous in the
/// global file, within one stripe (when alignment is on), at most
/// `staging_bytes` long.
struct Dispatch {
  Extent global;
  std::vector<DispatchPiece> pieces;
};

/// The planning step, one staging fill at a time: the members' *remaining*
/// extents ([offset + synced, end), resuming past already-durable bytes)
/// are coalesced into contiguous runs and split at staging-capacity and
/// stripe boundaries. Members must be mutually non-overlapping (the batch
/// gatherer guarantees this); fills come out in global-file order. The
/// remaining extents are read at construction, so the caller may advance
/// the members' `synced` offsets as it issues fills.
class DispatchCursor {
 public:
  DispatchCursor(const std::vector<SyncRequest>& members,
                 Offset staging_bytes, Offset stripe_unit);

  /// Refills `out` (reusing its storage) with the next staging fill;
  /// false once the batch is exhausted.
  bool next(Dispatch& out);

 private:
  /// A member's remaining work, flattened for planning.
  struct Segment {
    std::size_t member = 0;
    Extent global;
    Offset cache_offset = 0;
  };

  std::vector<Segment> segments_;  // sorted by global offset
  std::size_t segment_ = 0;        // first segment with bytes left
  Offset pos_ = 0;                 // next unplanned global offset in it
  Offset staging_bytes_ = 0;
  Offset stripe_unit_ = 0;
};

/// What one batch drain did; the sync thread folds this into SyncStats and
/// drives the requeue/abandon ladder from `status`.
struct BatchOutcome {
  /// ok when every member is fully durable; otherwise the failure that
  /// exhausted the in-place attempt budget (members' `synced` offsets are
  /// advanced past everything already durable).
  Status status = Status::ok();
  int retries = 0;                  // in-place retries consumed
  std::uint64_t dispatches = 0;     // stripe-aligned writes issued
  Offset bytes_written = 0;         // bytes issued durably this drain
  /// When every byte issued this drain is on the media. On success the
  /// drain returns at issue-completion with writes still in flight; the
  /// caller must not promise durability (grequests, commit records) until
  /// the clock is past this time. On failure everything is already joined
  /// and this is the return-time clock.
  Time done_time = 0;
};

/// Scheduler totals across a sync thread's lifetime, folded into the
/// metrics registry at shutdown (cache.sync.coalesce.* / .streams.*).
struct FlushSchedulerStats {
  std::uint64_t batches = 0;
  std::uint64_t members = 0;  // requests that entered batches
  std::uint64_t inflight_high_water = 0;
};

class FlushScheduler {
 public:
  FlushScheduler(sim::Engine& engine, lfs::LocalFs& local_fs,
                 lfs::FileHandle cache_handle, pfs::Pfs& pfs,
                 pfs::FileHandle global_handle, const std::string& global_path,
                 const FlushSchedulerParams& params);

  FlushScheduler(const FlushScheduler&) = delete;
  FlushScheduler& operator=(const FlushScheduler&) = delete;

  /// Drains one batch: walks a DispatchCursor over it, stages each fill
  /// through a free stream buffer (joining the oldest in-flight write when
  /// all buffers are busy), and issues it durably. On success up to
  /// `streams` writes are still in flight at return — the caller defers
  /// the members' completion until the clock passes
  /// `BatchOutcome::done_time` instead of stalling here on a join-all tail
  /// after every batch; in-flight writes carry over and are joined by
  /// later drains as buffers recycle.
  /// Retryable failures back off with the policy (delays drawn from
  /// `backoff_rng`, built at the first draw) and retry in place; on
  /// exhaustion everything in flight is joined and the remaining work is
  /// left to the caller's requeue ladder. Must run on the sync thread's
  /// simulated process.
  BatchOutcome drain(std::vector<SyncRequest>& members,
                     const RetryPolicy& retry, LazyRng& backoff_rng);

  /// Joins every in-flight write (the caller's clock ends past the last
  /// completion). Call before shutdown so the overlap window accounts for
  /// every issued write.
  void join_all();

  const FlushSchedulerParams& params() const { return params_; }
  const FlushSchedulerStats& stats() const { return stats_; }
  /// Join-point accounting of the stream window (write/hidden/stall time).
  const sim::OverlapAccumulator& overlap() const { return overlap_; }

 private:
  struct InFlight {
    Time issued = 0;
    Time done = 0;
  };

  /// Joins the oldest in-flight write (advances the clock past its
  /// completion) and records the overlap split.
  void join_oldest();
  /// Joins until fewer than `streams` writes are in flight (a staging
  /// buffer is free for the next read-back).
  void acquire_buffer();
  Time backoff_delay(const RetryPolicy& retry, LazyRng& rng, int attempt);

  sim::Engine& engine_;
  lfs::LocalFs& local_fs_;
  lfs::FileHandle cache_handle_;
  pfs::Pfs& pfs_;
  pfs::FileHandle global_handle_;
  FlushSchedulerParams params_;
  /// FIFO, bounded by params_.streams.
  std::vector<InFlight> in_flight_ E10_TRACKED_BY(state_var_);
  sim::OverlapAccumulator overlap_ E10_TRACKED_BY(state_var_);
  FlushSchedulerStats stats_ E10_TRACKED_BY(state_var_);
  /// Scheduler bookkeeping is single-owner state of the sync thread; the
  /// registration lets the checker verify nothing else ever touches it.
  sim::SharedVar state_var_;
};

}  // namespace e10::cache

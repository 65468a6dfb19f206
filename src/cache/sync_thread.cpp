#include "cache/sync_thread.h"

#include <algorithm>
#include <stdexcept>

#include "cache/journal.h"
#include "common/log.h"

namespace e10::cache {

SyncThread::SyncThread(sim::Engine& engine, lfs::LocalFs& local_fs,
                       lfs::FileHandle cache_handle, pfs::Pfs& pfs,
                       pfs::FileHandle global_handle, std::string global_path,
                       LockTable* locks, const FlushSchedulerParams& drain,
                       const RetryPolicy& retry,
                       std::optional<lfs::FileHandle> commits_handle,
                       obs::MetricsRegistry* metrics, obs::Tracer* tracer,
                       int rank)
    : engine_(engine),
      local_fs_(local_fs),
      global_path_(std::move(global_path)),
      locks_(locks),
      inbox_(engine),
      stats_mutex_(engine, "cache.sync.stats_mutex:" + global_path_),
      stats_var_(engine, "cache.sync.stats:" + global_path_),
      inbox_var_(engine, "cache.sync.inbox:" + global_path_),
      inbox_monitor_name_("cache.sync.inbox.monitor:" + global_path_),
      retry_(retry),
      scheduler_(engine, local_fs, cache_handle, pfs, global_handle,
                 global_path_, drain),
      backoff_rng_(Rng::derive(
          Rng::derive(static_cast<std::uint64_t>(rank), global_path_),
          "sync-backoff")),
      commits_handle_(commits_handle),
      metrics_(metrics),
      tracer_(tracer),
      rank_(rank) {
  // The inbox monitor is keyed on this heap object's inbox_.
  sim::lock_created(engine_, &inbox_);
  handle_ = engine_.spawn("sync:" + global_path_, [this] { run(); });
}

void SyncThread::note_queue_depth(std::size_t depth) {
  {
    const sim::SimLock lock(stats_mutex_);
    E10_SHARED_WRITE(stats_var_);
    stats_.queue_depth_high_water =
        std::max(stats_.queue_depth_high_water,
                 static_cast<std::uint64_t>(depth));
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->counter("sync queue depth (rank " + std::to_string(rank_) + ")",
                     static_cast<std::int64_t>(depth));
  }
}

void SyncThread::enqueue(SyncRequest request) {
  if (!handle_.valid()) {
    throw std::logic_error("SyncThread: enqueue after shutdown");
  }
  // The enqueue is the causal source of the drain that services it.
  if (sim::CausalObserver* causal = engine_.causal_observer();
      causal != nullptr && engine_.in_process()) {
    request.cause = causal->emit(sim::EdgeKind::sync_queue, engine_.current(),
                                 engine_.now());
  }
  std::size_t depth = 0;
  {
    const sim::MonitorGuard monitor(engine_, &inbox_, inbox_monitor_name_);
    E10_SHARED_WRITE(inbox_var_);
    inbox_.send(std::move(request));
    depth = inbox_.size();
  }
  note_queue_depth(depth);
}

SyncStats SyncThread::stats_snapshot() {
  const sim::SimLock lock(stats_mutex_);
  E10_SHARED_READ(stats_var_);
  return stats_;
}

std::uint64_t SyncThread::abandoned_count() {
  const sim::SimLock lock(stats_mutex_);
  E10_SHARED_READ(stats_var_);
  return stats_.abandoned;
}

void SyncThread::fold_stats_and_join() {
  {
    const sim::MonitorGuard monitor(engine_, &inbox_, inbox_monitor_name_);
    E10_SHARED_WRITE(inbox_var_);
    SyncRequest sentinel;
    sentinel.shutdown = true;
    inbox_.send(std::move(sentinel));
  }
  handle_.join();
  handle_ = sim::ProcessHandle();
  if (metrics_ != nullptr) {
    const SyncStats totals = stats_snapshot();
    // Fold this thread's totals into the shared registry; gauges keep the
    // max across threads via their high-water mark. The registry itself is
    // engine-atomic shared state: claim its monitor for the checker.
    const sim::MonitorGuard monitor(engine_, metrics_,
                                    obs::names::kMetricsMonitor);
    sim::shared_access(engine_, metrics_, obs::names::kMetricsRegistryVar,
                       /*is_write=*/true, E10_SITE);
    namespace names = obs::names;
    metrics_->counter(names::kSyncRequests)
        .add(static_cast<std::int64_t>(totals.requests));
    metrics_->counter(names::kSyncBytes).add(totals.bytes_synced);
    metrics_->counter(names::kSyncChunks)
        .add(static_cast<std::int64_t>(totals.staging_chunks));
    metrics_->counter(names::kSyncRetries)
        .add(static_cast<std::int64_t>(totals.retries));
    metrics_->counter(names::kSyncRequeues)
        .add(static_cast<std::int64_t>(totals.requeues));
    metrics_->counter(names::kSyncAbandoned)
        .add(static_cast<std::int64_t>(totals.abandoned));
    metrics_->counter(names::kSyncBusyNs).add(totals.busy_time);
    metrics_->gauge(names::kSyncQueueDepth)
        .set(static_cast<std::int64_t>(totals.queue_depth_high_water));
    // Flush-scheduler totals: coalescing shape and the stream window's
    // write/hidden/stall split (docs/flush_scheduler.md).
    const FlushSchedulerStats& sched = scheduler_.stats();
    const sim::OverlapAccumulator& window = scheduler_.overlap();
    metrics_->counter(names::kSyncBatches)
        .add(static_cast<std::int64_t>(sched.batches));
    metrics_->counter(names::kSyncBatchMembers)
        .add(static_cast<std::int64_t>(sched.members));
    metrics_->counter(names::kSyncStreamWriteNs).add(window.service_time());
    metrics_->counter(names::kSyncStreamHiddenNs).add(window.hidden_time());
    metrics_->counter(names::kSyncStreamStalls)
        .add(static_cast<std::int64_t>(window.stalls()));
    metrics_->counter(names::kSyncStreamStallNs).add(window.stall_time());
    metrics_->gauge(names::kSyncStreamInflight)
        .set(static_cast<std::int64_t>(sched.inflight_high_water));
  }
}

void SyncThread::shutdown_and_join() {
  if (!handle_.valid()) return;
  fold_stats_and_join();
}

void SyncThread::cancel_drain_and_join() {
  if (!handle_.valid()) return;
  cancelled_ = true;
  fold_stats_and_join();
}

SyncThread::Gather SyncThread::gather_batch(std::vector<SyncRequest>& batch,
                                            bool may_block) {
  SyncRequest first;
  if (pending_.has_value()) {
    first = std::move(*pending_);
    pending_.reset();
  } else if (shutdown_seen_ || !may_block) {
    // After the sentinel only requeued work can still be queued; with
    // deferred completions outstanding the caller must not block either —
    // either way, drain what is there without waiting.
    std::optional<SyncRequest> next;
    {
      const sim::MonitorGuard monitor(engine_, &inbox_, inbox_monitor_name_);
      E10_SHARED_WRITE(inbox_var_);
      next = inbox_.try_recv();
    }
    if (!next.has_value()) {
      return shutdown_seen_ ? Gather::kShutdown : Gather::kEmpty;
    }
    if (next->shutdown) return Gather::kShutdown;
    first = std::move(*next);
  } else {
    const Time before = engine_.now();
    first = [this] {
      // The monitor is claimed across the (possibly blocking) recv — the
      // classic condition-wait-inside-monitor shape; see concurrency.h.
      const sim::MonitorGuard monitor(engine_, &inbox_, inbox_monitor_name_);
      E10_SHARED_WRITE(inbox_var_);
      return inbox_.recv();
    }();
    // The idle inbox wait ended because this request was enqueued.
    if (sim::CausalObserver* causal = engine_.causal_observer();
        causal != nullptr && first.cause != 0 && engine_.now() > before) {
      causal->ack(first.cause, engine_.current(), engine_.now());
    }
    if (first.shutdown) return Gather::kShutdown;
  }
  batch.push_back(std::move(first));

  // The cancelled drain does no I/O, so there is nothing to coalesce.
  if (!scheduler_.params().coalesce || cancelled_) return Gather::kBatch;

  // Request aggregation: pull everything already queued into the batch, as
  // long as its remaining extent does not overlap the batch's coverage. An
  // overlapping request must dispatch *after* this batch (later writes
  // shadow earlier ones in queue order), so it parks in pending_ and seeds
  // the next batch.
  ExtentList coverage;
  coverage.add(batch.front().remaining());
  while (batch.size() < kMaxBatchMembers) {
    std::optional<SyncRequest> next;
    {
      const sim::MonitorGuard monitor(engine_, &inbox_, inbox_monitor_name_);
      E10_SHARED_WRITE(inbox_var_);
      next = inbox_.try_recv();
    }
    if (!next.has_value()) break;
    if (next->shutdown) {
      shutdown_seen_ = true;
      break;
    }
    if (!coverage.clipped_to(next->remaining()).empty()) {
      pending_ = std::move(next);
      break;
    }
    coverage.add(next->remaining());
    coverage.coalesce();
    batch.push_back(std::move(*next));
  }
  return Gather::kBatch;
}

void SyncThread::reap_deferred() {
  while (!deferred_.empty() &&
         deferred_.front().done_time <= engine_.now()) {
    for (SyncRequest& member : deferred_.front().members) {
      finish_member(member, /*durable=*/true);
    }
    deferred_.pop_front();
  }
}

void SyncThread::finalize_deferred() {
  if (deferred_.empty()) return;
  const Time before = engine_.now();
  Time last = 0;
  for (const DeferredBatch& batch : deferred_) {
    last = std::max(last, batch.done_time);
  }
  if (last > before) {
    engine_.advance_to(last);
    // Waiting the batches out gated this lane: record each one actually
    // waited on as an async service bridge (issue -> media-durable).
    if (sim::CausalObserver* causal = engine_.causal_observer();
        causal != nullptr) {
      for (const DeferredBatch& batch : deferred_) {
        if (batch.done_time > before) {
          causal->bridge(sim::EdgeKind::batch_done, engine_.current(),
                         batch.issued, batch.done_time);
        }
      }
    }
  }
  reap_deferred();
}

void SyncThread::finish_member(SyncRequest& member, bool durable) {
  if (durable && commits_handle_.has_value() && member.seq != 0) {
    const Status committed = local_fs_.write(
        *commits_handle_, commits_cursor_, encode_commit_record(member.seq));
    if (committed.is_ok()) {
      commits_cursor_ += kCommitRecordBytes;
    } else {
      // A missed commit only means recovery replays an already-durable
      // extent — safe (replay is idempotent), so log and move on.
      log::warn("sync", "commit record failed: ", committed.to_string());
    }
  }
  if (member.release_lock && locks_ != nullptr) {
    locks_->unlock(global_path_, member.global);
  }
  if (member.grequest.valid()) member.grequest.complete();
}

void SyncThread::run() {
  // Each sync thread gets its own trace track, sorted below the rank rows.
  if (tracer_ != nullptr && tracer_->enabled() && track_ < 0) {
    track_ = tracer_->track(
        "sync r" + std::to_string(rank_) + " " + global_path_, 1000 + rank_);
  }
  for (;;) {
    // Completions the clock has already passed are free; collect them
    // before the next batch so waiters never lag further than one drain.
    reap_deferred();
    std::vector<SyncRequest> batch;
    Gather got = gather_batch(batch, /*may_block=*/deferred_.empty());
    if (got == Gather::kEmpty) {
      // Nothing queued but batches still awaiting their media time: wait
      // those writes out now — the stall overlaps what would otherwise be
      // idle blocking on the inbox — then block for real.
      finalize_deferred();
      got = gather_batch(batch, /*may_block=*/true);
    }
    if (got == Gather::kShutdown) break;
    note_queue_depth(inbox_.size());

    if (cancelled_) {
      // Crash drain: no more I/O — just release waiters. The extents stay
      // un-synced in the (persistent) cache file for recover() to replay.
      for (SyncRequest& member : batch) {
        if (member.release_lock && locks_ != nullptr) {
          locks_->unlock(global_path_, member.global);
        }
        if (member.grequest.valid()) member.grequest.complete();
      }
      continue;  // gather_batch ends the loop once the queue is empty
    }

    {
      const sim::SimLock lock(stats_mutex_);
      E10_SHARED_WRITE(stats_var_);
      for (const SyncRequest& member : batch) {
        if (member.requeues == 0) ++stats_.requests;
      }
    }
    const Time busy_start = engine_.now();
    obs::Span span(tracer_, track_, "flush_batch");
    span.arg("offset", batch.front().global.offset);
    span.arg("members", static_cast<Offset>(batch.size()));

    const BatchOutcome outcome =
        scheduler_.drain(batch, retry_, backoff_rng_);
    span.arg("dispatches", static_cast<Offset>(outcome.dispatches));
    span.arg("bytes", outcome.bytes_written);
    if (outcome.retries > 0) span.arg("retries", outcome.retries);
    {
      const sim::SimLock lock(stats_mutex_);
      E10_SHARED_WRITE(stats_var_);
      stats_.bytes_synced += outcome.bytes_written;
      stats_.staging_chunks += outcome.dispatches;
      stats_.retries += static_cast<std::uint64_t>(outcome.retries);
      stats_.busy_time += engine_.now() - busy_start;
    }

    if (outcome.status.is_ok()) {
      // Fully drained: every member's bytes are issued durably (resume
      // offsets at full length); completion waits for the media time so
      // the durability promise holds, without stalling the drain here.
      deferred_.push_back(
          DeferredBatch{std::move(batch), outcome.done_time, busy_start});
      continue;
    }
    // Failure: the drain joined everything. Earlier batches complete first
    // so commit records and lock releases keep queue order.
    finalize_deferred();
    bool requeued = false;
    for (SyncRequest& member : batch) {
      if (member.synced >= member.global.length) {
        finish_member(member, /*durable=*/true);
        continue;
      }
      const bool retryable = is_retryable(outcome.status.code());
      if (retryable && member.requeues < retry_.max_requeues) {
        // Out of in-place attempts: go to the back of the queue and let
        // other requests (possibly targeting healthy servers) proceed.
        // Progress is kept — the requeued request resumes past the bytes
        // that are already durable, even when a later batch coalesces it.
        {
          const sim::SimLock lock(stats_mutex_);
          E10_SHARED_WRITE(stats_var_);
          ++stats_.requeues;
        }
        log::warn("sync", "extent @", member.global.offset,
                  " requeued after ", outcome.retries + 1, " attempts (",
                  outcome.status.to_string(), ")");
        SyncRequest retry = std::move(member);
        ++retry.requeues;
        {
          const sim::MonitorGuard monitor(engine_, &inbox_,
                                          inbox_monitor_name_);
          E10_SHARED_WRITE(inbox_var_);
          inbox_.send(std::move(retry));
        }
        requeued = true;
        continue;
      }
      // Abandoned: the extent could not be made durable. Complete the
      // grequest anyway — a hung flush would deadlock the rank — and let
      // CacheFile::flush() surface the failure via the abandoned count.
      {
        const sim::SimLock lock(stats_mutex_);
        E10_SHARED_WRITE(stats_var_);
        ++stats_.abandoned;
      }
      log::error("sync", "extent @", member.global.offset, " abandoned (",
                 outcome.status.to_string(), ")");
      span.arg("abandoned", outcome.status.to_string());
      finish_member(member, /*durable=*/false);
    }
    if (requeued) note_queue_depth(inbox_.size());
    // After the sentinel, gather_batch keeps draining pending_/requeued
    // work without blocking and ends the loop once nothing is left.
  }
  // Exit: wait out and complete everything still deferred, and join any
  // writes a later drain never recycled so the overlap window accounts for
  // every issued byte.
  finalize_deferred();
  scheduler_.join_all();
}

}  // namespace e10::cache

#include "cache/flush_scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/log.h"

namespace e10::cache {

namespace {

/// Advances `member`'s resume offset past `piece`, just issued durably.
/// Fills go out in ascending global order and each member's remaining
/// extent is one run from its resume point, so a member's issued bytes
/// always form one run from its front: every piece must start exactly
/// there. One that does not would leave a hole that `synced` cannot
/// express, so a reordered drain fails here instead of losing bytes.
void advance_front(SyncRequest& member, const Extent& piece) {
  if (piece.offset != member.global.offset + member.synced) {
    throw std::logic_error("FlushScheduler: piece @" +
                           std::to_string(piece.offset) +
                           " is not at its member's resume point @" +
                           std::to_string(member.global.offset +
                                          member.synced));
  }
  member.synced += piece.length;
}

}  // namespace

DispatchCursor::DispatchCursor(const std::vector<SyncRequest>& members,
                               Offset staging_bytes, Offset stripe_unit)
    : staging_bytes_(staging_bytes), stripe_unit_(stripe_unit) {
  segments_.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    const Extent rem = members[i].remaining();
    if (rem.empty()) continue;
    segments_.push_back(
        Segment{i, rem, members[i].cache_offset + members[i].synced});
  }
  std::sort(segments_.begin(), segments_.end(),
            [](const Segment& a, const Segment& b) {
              return a.global.offset < b.global.offset;
            });
  if (!segments_.empty()) pos_ = segments_.front().global.offset;
}

bool DispatchCursor::next(Dispatch& out) {
  out.pieces.clear();
  if (segment_ == segments_.size()) return false;
  out.global = Extent{pos_, 0};
  // One fill is one staging buffer, and (with alignment on) never crosses
  // a stripe boundary — so no flush write spans two data servers.
  Offset limit = pos_ + staging_bytes_;
  if (stripe_unit_ > 0) {
    limit = std::min(limit, (pos_ / stripe_unit_ + 1) * stripe_unit_);
  }
  // A gap between coalesced runs ends the fill: fills are contiguous in
  // the global file.
  while (segment_ < segments_.size() && pos_ == out.global.end() &&
         pos_ < limit) {
    const Segment& seg = segments_[segment_];
    const Offset take = std::min(seg.global.end(), limit) - pos_;
    out.pieces.push_back(DispatchPiece{
        seg.member, seg.cache_offset + (pos_ - seg.global.offset),
        Extent{pos_, take}});
    out.global.length += take;
    pos_ += take;
    if (pos_ == seg.global.end() && ++segment_ < segments_.size()) {
      pos_ = segments_[segment_].global.offset;
    }
  }
  return true;
}

FlushScheduler::FlushScheduler(sim::Engine& engine, lfs::LocalFs& local_fs,
                               lfs::FileHandle cache_handle, pfs::Pfs& pfs,
                               pfs::FileHandle global_handle,
                               const std::string& global_path,
                               const FlushSchedulerParams& params)
    : engine_(engine),
      local_fs_(local_fs),
      cache_handle_(cache_handle),
      pfs_(pfs),
      global_handle_(global_handle),
      params_(params),
      state_var_(engine, "cache.sync.flush_sched:" + global_path) {
  if (params_.streams < 1) {
    throw std::logic_error("FlushScheduler: streams must be >= 1");
  }
  if (params_.staging_bytes <= 0) {
    throw std::logic_error("FlushScheduler: staging buffer must be > 0");
  }
  if (params_.stripe_unit < 0) {
    throw std::logic_error("FlushScheduler: negative stripe unit");
  }
  if (params_.max_batch < 1) params_.max_batch = 1;
  in_flight_.reserve(static_cast<std::size_t>(params_.streams));
}

void FlushScheduler::join_oldest() {
  E10_SHARED_WRITE(state_var_);
  const InFlight oldest = in_flight_.front();
  in_flight_.erase(in_flight_.begin());
  // Split the service interval at the pre-join clock: what already elapsed
  // was hidden behind other streams' work, the rest is a stall.
  overlap_.on_join(oldest.issued, oldest.done, engine_.now());
  // A stalling join gates this lane on the write's media time: record the
  // async service interval for critical-path attribution.
  if (sim::CausalObserver* causal = engine_.causal_observer();
      causal != nullptr && oldest.done > engine_.now()) {
    causal->bridge(sim::EdgeKind::batch_done, engine_.current(),
                   oldest.issued, oldest.done);
  }
  engine_.advance_to(oldest.done);
}

void FlushScheduler::join_all() {
  while (!in_flight_.empty()) join_oldest();
}

void FlushScheduler::acquire_buffer() {
  while (in_flight_.size() >= static_cast<std::size_t>(params_.streams)) {
    join_oldest();
  }
}

Time FlushScheduler::backoff_delay(const RetryPolicy& retry, LazyRng& rng,
                                   int attempt) {
  Time delay = retry.backoff_base;
  for (int i = 1; i < attempt && delay < retry.backoff_cap; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, retry.backoff_cap);
  if (retry.jitter > 0.0 && delay > 0) {
    delay += static_cast<Time>(static_cast<double>(delay) *
                               rng.get().uniform(0.0, retry.jitter));
  }
  return delay;
}

BatchOutcome FlushScheduler::drain(std::vector<SyncRequest>& members,
                                   const RetryPolicy& retry,
                                   LazyRng& backoff_rng) {
  BatchOutcome outcome;
  E10_SHARED_WRITE(state_var_);
  ++stats_.batches;
  stats_.members += members.size();
  // One staging fill is planned at a time, into storage reused across
  // the batch: the drain holds one fill, as the serial drain held one
  // staging buffer.
  DispatchCursor cursor(members, params_.staging_bytes, params_.stripe_unit);
  Dispatch dispatch;
  std::vector<DataView> parts;

  int attempts = 0;
  while (cursor.next(dispatch)) {
    for (;;) {
      // A staging buffer must be free before the read-back can fill it:
      // with every stream busy, join the oldest in-flight write first.
      // (streams=1 therefore issues in the serial read→write→read order.)
      acquire_buffer();
      Status failure = Status::ok();
      parts.clear();
      for (const DispatchPiece& piece : dispatch.pieces) {
        auto data = local_fs_.read(cache_handle_, piece.cache_offset,
                                   piece.global.length);
        if (!data.is_ok()) {
          failure = data.status();
          break;
        }
        parts.push_back(std::move(data).value());
      }
      if (failure.is_ok()) {
        // Durable issue: content and failure are determined at issue time;
        // the returned completion time is when the media has the bytes.
        auto issued = pfs_.write_durable_async(
            global_handle_, dispatch.global.offset, DataView::concat(parts));
        if (issued.is_ok()) {
          in_flight_.push_back(InFlight{engine_.now(), issued.value()});
          outcome.done_time = std::max(outcome.done_time, issued.value());
          stats_.inflight_high_water = std::max(
              stats_.inflight_high_water,
              static_cast<std::uint64_t>(in_flight_.size()));
          ++stats_.dispatches;
          ++outcome.dispatches;
          outcome.bytes_written += dispatch.global.length;
          // The write will reach the media: advance the members' resume
          // offsets so a later requeue never re-sends these bytes.
          for (const DispatchPiece& piece : dispatch.pieces) {
            advance_front(members[piece.member], piece.global);
          }
          break;
        }
        failure = issued.status();
      }
      if (!is_retryable(failure.code()) || attempts >= retry.max_attempts) {
        // Out of in-place attempts: join what is in flight (those bytes
        // are durable and accounted) and hand the remains to the caller's
        // requeue/abandon ladder.
        join_all();
        outcome.status = failure;
        outcome.retries = attempts;
        outcome.done_time = engine_.now();
        return outcome;
      }
      ++attempts;
      const Time wait = backoff_delay(retry, backoff_rng, attempts);
      log::warn("sync", "dispatch @", dispatch.global.offset, " attempt ",
                attempts, " failed (", failure.to_string(), "), backing off ",
                format_time(wait));
      engine_.delay(wait);
      // Loop re-stages the same fill from the cache, as the serial drain
      // re-read a failed staging chunk; the cursor moves on only once it
      // is issued.
    }
  }
  // Every fill issued: the content is determined and the writes will
  // reach the media by `done_time`. The last writes stay in flight —
  // joining them here would stall the thread for a full queue latency per
  // batch; later drains join them as buffers recycle, and the sync thread
  // waits for `done_time` only right before it promises durability to the
  // members' waiters.
  if (outcome.done_time == 0) outcome.done_time = engine_.now();
  outcome.retries = attempts;
  return outcome;
}

}  // namespace e10::cache

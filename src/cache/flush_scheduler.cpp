#include "cache/flush_scheduler.h"

#include <algorithm>
#include <stdexcept>

#include "common/log.h"

namespace e10::cache {

namespace {

/// A member's remaining work, flattened for planning.
struct Segment {
  std::size_t member = 0;
  Extent global;
  Offset cache_offset = 0;
};

}  // namespace

std::vector<Dispatch> plan_dispatches(const std::vector<SyncRequest>& members,
                                      Offset staging_bytes,
                                      Offset stripe_unit) {
  std::vector<Segment> segments;
  segments.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    const Extent rem = members[i].remaining();
    if (rem.empty()) continue;
    segments.push_back(
        Segment{i, rem, members[i].cache_offset + members[i].synced});
  }
  std::sort(segments.begin(), segments.end(),
            [](const Segment& a, const Segment& b) {
              return a.global.offset < b.global.offset;
            });

  std::vector<Dispatch> plan;
  Dispatch cur;
  bool open = false;
  const auto close = [&] {
    if (open) plan.push_back(std::move(cur));
    cur = Dispatch{};
    open = false;
  };
  for (const Segment& seg : segments) {
    Offset pos = seg.global.offset;
    while (pos < seg.global.end()) {
      // A gap between coalesced runs ends the dispatch: dispatches are
      // contiguous in the global file.
      if (open && cur.global.end() != pos) close();
      if (!open) {
        cur.global = Extent{pos, 0};
        open = true;
      }
      // One dispatch is one staging-buffer fill, and (with alignment on)
      // never crosses a stripe boundary — so no flush write spans two data
      // servers.
      Offset limit = cur.global.offset + staging_bytes;
      if (stripe_unit > 0) {
        const Offset next_stripe =
            (cur.global.offset / stripe_unit + 1) * stripe_unit;
        limit = std::min(limit, next_stripe);
      }
      const Offset take = std::min(seg.global.end(), limit) - pos;
      cur.pieces.push_back(DispatchPiece{
          seg.member, seg.cache_offset + (pos - seg.global.offset),
          Extent{pos, take}});
      cur.global.length += take;
      pos += take;
      if (cur.global.end() >= limit) close();
    }
  }
  close();
  return plan;
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
  const std::vector<Dispatch> plan =
      plan_dispatches(members, params_.staging_bytes, params_.stripe_unit);

  // Bytes issued durably per member, folded into the `synced` resume
  // offsets on every exit path. Tracking extents (rather than bumping a
  // front pointer at issue time) keeps the accounting correct for any
  // dispatch order: the front only advances over bytes actually issued.
  std::vector<ExtentList> issued_bytes(members.size());
  const auto account_synced = [&] {
    for (std::size_t m = 0; m < members.size(); ++m) {
      if (issued_bytes[m].size() == 0) continue;
      issued_bytes[m].coalesce();
      SyncRequest& member = members[m];
      for (std::size_t e = 0; e < issued_bytes[m].size(); ++e) {
        const Extent& ext = issued_bytes[m][e];
        const Offset front = member.global.offset + member.synced;
        if (ext.offset <= front && ext.end() > front) {
          member.synced = ext.end() - member.global.offset;
        }
      }
    }
  };

  int attempts = 0;
  for (const Dispatch& dispatch : plan) {
    for (;;) {
      // A staging buffer must be free before the read-back can fill it:
      // with every stream busy, join the oldest in-flight write first.
      // (streams=1 therefore issues in the serial read→write→read order.)
      acquire_buffer();
      Status failure = Status::ok();
      std::vector<DataView> parts;
      parts.reserve(dispatch.pieces.size());
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
          // The write will reach the media: record the bytes so the
          // members' resume offsets advance and a later requeue never
          // re-sends them.
          for (const DispatchPiece& piece : dispatch.pieces) {
            issued_bytes[piece.member].add(piece.global);
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
        account_synced();
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
      // Loop re-stages the dispatch from the cache, as the serial drain
      // re-read a failed staging chunk.
    }
  }
  // Every dispatch issued: the content is determined and the writes will
  // reach the media by `done_time`, so the resume offsets may advance now.
  // The last writes stay in flight — joining them here would stall the
  // thread for a full queue latency per batch; later drains join them as
  // buffers recycle, and the sync thread waits for `done_time` only right
  // before it promises durability to the members' waiters.
  account_synced();
  if (outcome.done_time == 0) outcome.done_time = engine_.now();
  outcome.retries = attempts;
  return outcome;
}

}  // namespace e10::cache

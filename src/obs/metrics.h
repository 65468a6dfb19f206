// Metrics registry: named counters, gauges and fixed-bucket histograms over
// integral values (bytes, counts, virtual nanoseconds).
//
// The registry is owned by the Platform and shared by every layer of the
// collective-write pipeline (cache sync threads, PFS servers, the ADIO
// collective driver, MPIWRAP). Hot paths resolve their Counter*/Gauge*
// pointers once at construction — references into the registry stay valid
// for its lifetime — so a disabled or absent registry costs a single null
// check per event. snapshot as_json() feeds the run report.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace e10::obs {

class Counter {
 public:
  void add(std::int64_t delta) { value_ += delta; }
  void increment() { ++value_; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Point-in-time value with a high-water mark (e.g. sync queue depth).
class Gauge {
 public:
  void set(std::int64_t value) {
    value_ = value;
    high_water_ = std::max(high_water_, value);
  }
  void add(std::int64_t delta) { set(value_ + delta); }
  std::int64_t value() const { return value_; }
  std::int64_t high_water() const { return high_water_; }

 private:
  std::int64_t value_ = 0;
  std::int64_t high_water_ = 0;
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds in ascending
/// order; one implicit overflow bucket catches everything above the last.
class Histogram {
 public:
  explicit Histogram(std::vector<std::int64_t> bounds);

  void observe(std::int64_t value);

  std::uint64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  std::int64_t min() const { return count_ == 0 ? 0 : min_; }
  std::int64_t max() const { return count_ == 0 ? 0 : max_; }
  const std::vector<std::int64_t>& bounds() const { return bounds_; }
  /// One count per bound, plus the trailing overflow bucket.
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }
  /// Index of the bucket `value` falls into.
  std::size_t bucket_index(std::int64_t value) const;

  /// Nearest-rank percentile estimate from the bucket counts, q in [0, 1]:
  /// the inclusive upper bound of the bucket holding the q-quantile
  /// observation, clamped to the observed [min, max] (exact for the
  /// overflow bucket, which reports max()). 0 when empty.
  std::int64_t percentile(double q) const;

 private:
  std::vector<std::int64_t> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

/// Power-of-`factor` bucket bounds starting at `first`: {first, first*factor,
/// ...}, `count` entries.
std::vector<std::int64_t> exponential_bounds(std::int64_t first, int count,
                                             std::int64_t factor = 2);

/// The usual byte-size bucketing, built once: 4 KiB doubling to 32 MiB
/// (exponential_bounds(4096, 14)).
const std::vector<std::int64_t>& byte_size_bounds();

class MetricsRegistry {
 public:
  /// Create-or-get. Returned references stay valid for the registry's
  /// lifetime (instruments live in node-based maps). A lookup builds the
  /// key string only when it creates the instrument.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` apply only on first creation.
  Histogram& histogram(std::string_view name,
                       const std::vector<std::int64_t>& bounds);

  /// Brings counter `name` up to a layer's own running total: a layer that
  /// keeps its totals publishes them at report time. Idempotent, so
  /// publishing again does not double-count.
  void publish(std::string_view name, std::int64_t total) {
    Counter& published = counter(name);
    published.add(total - published.value());
  }

  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;

  /// Counter value, 0 when the counter was never touched.
  std::int64_t counter_value(std::string_view name) const;
  /// Gauge high-water mark, 0 when the gauge was never touched.
  std::int64_t gauge_high_water(std::string_view name) const;

  std::size_t instruments() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }
  void clear();

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  Json as_json() const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Well-known metric names shared between the instrumented layers and the
/// run-report emitter.
namespace names {
inline constexpr const char* kSyncRequests = "cache.sync.requests";
inline constexpr const char* kSyncBytes = "cache.sync.bytes_synced";
inline constexpr const char* kSyncChunks = "cache.sync.staging_chunks";
inline constexpr const char* kSyncBusyNs = "cache.sync.busy_ns";
inline constexpr const char* kSyncQueueDepth = "cache.sync.queue_depth";
inline constexpr const char* kCacheWrites = "cache.writes";
inline constexpr const char* kCacheBytes = "cache.bytes_cached";
inline constexpr const char* kCacheFallbackWrites = "cache.fallback_writes";
inline constexpr const char* kCacheReadHitBytes = "cache.read_hit_bytes";
inline constexpr const char* kCacheReadMisses = "cache.read_misses";
inline constexpr const char* kCacheWriteBytesHist = "cache.write_bytes";
inline constexpr const char* kAlltoallSendBytes = "coll.alltoall_send_bytes";
/// Write-pipeline occupancy (adio::WritePipeline): issued aggregator
/// writes, join stalls, and the virtual-time split of the in-flight write
/// service time into hidden (overlapped the next round's shuffle) and
/// stalled (the joiner waited). overlap = hidden_ns / write_ns.
inline constexpr const char* kPipelineWrites = "coll.pipeline.writes";
inline constexpr const char* kPipelineStalls = "coll.pipeline.stalls";
inline constexpr const char* kPipelineStallNs = "coll.pipeline.stall_ns";
inline constexpr const char* kPipelineWriteNs = "coll.pipeline.write_ns";
inline constexpr const char* kPipelineHiddenNs = "coll.pipeline.hidden_ns";
/// Two-level collective-write exchange (docs/two_level.md): rounds that ran
/// the two-stage protocol and its message/byte traffic split by physical
/// route — intra covers the stage-1 member → leader gathers plus stage-2
/// leader → same-node-aggregator forwards (shared memory), inter covers the
/// stage-2 leader → aggregator flows that cross nodes (NIC). Bytes are
/// payload bytes; a leader-aggregator's self-destined bucket merges locally
/// and is counted under neither.
inline constexpr const char* kTwoLevelRounds = "coll.two_level.rounds";
inline constexpr const char* kTwoLevelIntraMsgs = "coll.two_level.intra_msgs";
inline constexpr const char* kTwoLevelIntraBytes =
    "coll.two_level.intra_bytes";
inline constexpr const char* kTwoLevelInterMsgs = "coll.two_level.inter_msgs";
inline constexpr const char* kTwoLevelInterBytes =
    "coll.two_level.inter_bytes";
inline constexpr const char* kLockWaits = "pfs.lock.waits";
inline constexpr const char* kLockWaitNs = "pfs.lock.wait_ns";
inline constexpr const char* kLockHandoffs = "pfs.lock.handoffs";
inline constexpr const char* kFaultInjected = "fault.injected";
inline constexpr const char* kFaultOutageRejections = "fault.outage_rejections";
inline constexpr const char* kFaultCrashes = "fault.crashes";
inline constexpr const char* kSyncRetries = "cache.sync.retries";
inline constexpr const char* kSyncRequeues = "cache.sync.requeues";
inline constexpr const char* kSyncAbandoned = "cache.sync.abandoned";
inline constexpr const char* kCacheDegraded = "cache.degraded";
inline constexpr const char* kCacheRecoveredExtents = "cache.recover.extents";
inline constexpr const char* kCacheRecoveredBytes = "cache.recover.bytes";
/// Flush scheduler (cache::FlushScheduler, docs/flush_scheduler.md):
/// request coalescing — batches drained from the inbox and the sync
/// requests they carried (the stripe-aligned writes they collapsed to are
/// kSyncChunks) — and the multi-stream drain's virtual-time split of the
/// in-flight durable write service time into hidden (overlapped staging
/// reads / other streams) and stalled (the completion loop waited on the
/// oldest stream).
inline constexpr const char* kSyncBatches = "cache.sync.coalesce.batches";
inline constexpr const char* kSyncBatchMembers = "cache.sync.coalesce.members";
inline constexpr const char* kSyncStreamWriteNs = "cache.sync.streams.write_ns";
inline constexpr const char* kSyncStreamHiddenNs =
    "cache.sync.streams.hidden_ns";
inline constexpr const char* kSyncStreamStalls = "cache.sync.streams.stalls";
inline constexpr const char* kSyncStreamStallNs =
    "cache.sync.streams.stall_ns";
inline constexpr const char* kSyncStreamInflight =
    "cache.sync.streams.inflight";
/// Concurrency-checker registrations for the registry itself: every layer
/// that creates/aggregates instruments from inside a simulated process
/// claims this monitor (keyed by the registry's address) and reports the
/// access under this shared-var name. Individual Counter/Gauge bumps
/// through pre-resolved pointers are treated as atomic (relaxed) updates
/// and are not tracked. See docs/static_analysis.md.
inline constexpr const char* kMetricsMonitor = "obs.metrics.monitor";
inline constexpr const char* kMetricsRegistryVar = "obs.metrics.registry";
}  // namespace names

}  // namespace e10::obs

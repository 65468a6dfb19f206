// Post-run critical-path extraction and bottleneck attribution.
//
// The paper's phase timelines (Fig. 2) show *where* time went per rank; the
// stacked bars (Figs. 5/6/8/10) show the max over ranks per phase. Neither
// answers "what actually bounded the end-to-end time": a phase can dominate
// the slowest rank yet be entirely off the critical path (hidden behind
// another rank's straggling). This analyzer walks the causal event DAG a
// CausalRecorder captured — message matches, collective releases, sync-queue
// hand-offs, flush-batch completions, pipeline joins, lock hand-overs,
// process joins — backward from job completion, extracts the critical path,
// and attributes every nanosecond of it to a named phase or resource:
// shuffle, aggregator write, flush, lock wait, NIC contention, compute,
// coordination, idle. Per-rank skew rides along so one report answers both
// "what bounded this run" and "how unevenly"; the per-phase tails over
// ranks are in the run report's "phases" table.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "obs/causal.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "sim/engine.h"

namespace e10::obs {

/// Attribution categories for critical-path time. Order is report order.
enum class PathCategory : std::size_t {
  shuffle = 0,      ///< data shuffle: alltoall dissemination + isend/waitall
  write,            ///< aggregator write/read service (PFS or cache)
  flush,            ///< cache flush: batch service, sync waits, close drain
  lock_wait,        ///< stripe/extent lock hand-over wait
  nic_contention,   ///< NIC/memory queueing inside message latency
  compute,          ///< modeled application compute / request mapping
  coordination,     ///< open, offset exchange, error allreduce, round glue
  idle,             ///< on-path gap with no recorded span (scheduling slack)
  other,            ///< spans the category map does not know
  count
};

constexpr std::size_t kPathCategoryCount =
    static_cast<std::size_t>(PathCategory::count);

const char* path_category_name(PathCategory category);

/// One contiguous on-path segment (diagnostics; capped in the report).
struct PathSegment {
  sim::ProcessId pid = sim::kNoProcess;
  std::string process;  ///< engine name of pid ("rank 3", "sync:/out/f")
  Time begin = 0;
  Time end = 0;
  PathCategory category = PathCategory::other;
  std::string label;  ///< span name / edge kind that earned the category
};

struct CriticalPathReport {
  Time total_ns = 0;  ///< end-to-end virtual time walked (completion - 0)
  /// Attributed nanoseconds per category; sums to total_ns.
  std::array<Time, kPathCategoryCount> category_ns{};
  /// Category with the largest share (the headline bottleneck).
  PathCategory bottleneck = PathCategory::other;
  /// Fraction of total_ns attributed to a *named* category (not `other`).
  double attributed_fraction = 0.0;
  /// Causal hops the backward walk took (edges crossed).
  int hops = 0;
  /// True when the walk hit its iteration cap and charged the remainder to
  /// the lane it was on (should never happen on well-formed recordings).
  bool truncated = false;

  // Per-rank skew over the rank lanes' last span ends.
  Time rank_end_min_ns = 0;
  Time rank_end_p50_ns = 0;
  Time rank_end_max_ns = 0;
  /// (max - min) / max over rank completion times; 0 with <2 rank lanes.
  double rank_skew = 0.0;

  /// On-path segments, newest first (capped at kMaxSegments).
  std::vector<PathSegment> segments;
  static constexpr std::size_t kMaxSegments = 256;

  double fraction(PathCategory c) const {
    return total_ns > 0 ? static_cast<double>(
                              category_ns[static_cast<std::size_t>(c)]) /
                              static_cast<double>(total_ns)
                        : 0.0;
  }
};

/// Walks the DAG backward from the last recorded activity and attributes
/// the whole [0, completion] interval.
CriticalPathReport analyze_critical_path(const Tracer& tracer,
                                         const CausalRecorder& recorder);

/// Report section: totals, per-category ns + fraction, bottleneck, skew,
/// hops and the on-path segments.
Json critical_path_json(const CriticalPathReport& report);

/// Human-readable bottleneck table (fixed-width, one category per row).
std::string critical_path_table(const CriticalPathReport& report);

}  // namespace e10::obs

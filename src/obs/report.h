// Run-report emitter: serialises one experiment run — configuration,
// phase table over ranks, metrics snapshot and derived quantities (perceived
// bandwidth, flush-overlap ratio) — into a single machine-readable JSON
// object. Every figure spec of bench_sweep dumps one with --report=<path>,
// making runs comparable across PRs without screen-scraping the printed
// tables.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace e10::obs {

/// Largest per-rank total of `phase`: the "slowest path" contribution the
/// stacked figures show.
Time max_over_ranks(const PhaseTotals& totals, prof::Phase phase);

/// Per-phase min/p50/p95/p99/avg/max over ranks (seconds); every rank's
/// row counts, zeros included, and the percentiles are nearest-rank (the
/// p50 -> max spread is the straggler signature a max/avg pair hides).
/// Throws std::logic_error on a table without ranks.
Json phase_table_json(const PhaseTotals& totals);

struct RunReportInputs {
  /// Experiment configuration as flat key/value pairs (hints, testbed).
  std::vector<std::pair<std::string, std::string>> config;
  /// Per-rank phase totals (Tracer::phase_totals()); no "phases" while null.
  const PhaseTotals* phases = nullptr;
  const MetricsRegistry* metrics = nullptr;
  /// Derived quantities (perceived_bandwidth_gib, flush_overlap_ratio, ...).
  std::map<std::string, double> derived;
  /// Concurrency-checker section (analysis::ConcurrencyChecker::to_json());
  /// omitted from the report while null (checker not enabled).
  Json analysis;
};

/// {"config": {...}, "phases": {...}, "metrics": {...}, "derived": {...}}
/// plus "analysis" when the concurrency checker ran.
Json run_report_json(const RunReportInputs& inputs);

/// Fraction of the background cache-sync work hidden behind compute:
///   hidden_sync / total_sync, in [0, 1]
/// where total_sync is the virtual time the sync threads spent servicing
/// requests (cache.sync.busy_ns) and the visible part is the flush_wait
/// phase summed over ranks — the time each rank actually waited on its own
/// sync grequests. (not_hidden_sync is the wrong yardstick here: it times
/// the whole collective close, so the barrier smears the slowest rank's
/// wait across every rank.) 0 when no sync work happened.
double flush_overlap_ratio(const MetricsRegistry& metrics,
                           const PhaseTotals& totals);

Status write_json_file(const std::string& path, const Json& value);

}  // namespace e10::obs

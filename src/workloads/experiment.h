// Experiment harness for the paper's evaluation sweeps (§IV): one run =
// (testbed, aggregator count, collective buffer size, cache case) x a
// workload, producing the perceived bandwidth (Fig. 4/7/9 series) and the
// collective I/O time breakdown (Fig. 5/6/8/10 stacks).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/sync_thread.h"
#include "fault/fault_plan.h"
#include "obs/json.h"
#include "prof/phase.h"
#include "sim/engine.h"
#include "workloads/workflow.h"

namespace e10::workloads {

/// The three measurement cases of Fig. 4/7/9.
enum class CacheCase {
  disabled,     // "BW Cache Disable": write directly to the PFS
  enabled,      // "BW Cache Enable": cache + async flush
  theoretical,  // "TBW Cache Enable": cache, never flushed
};

const char* to_string(CacheCase c);

struct ExperimentSpec {
  TestbedParams testbed = deep_er_testbed();
  int aggregators = 64;          // cb_nodes
  Offset cb_buffer_size = 4 * units::MiB;
  CacheCase cache_case = CacheCase::disabled;
  /// The workflow as run: its `hints` entries override the ones the spec
  /// derives (experiment_hints), and `deferred_close` holds only while the
  /// cache is enabled — the uncached baseline always closes each file
  /// before its compute phase.
  WorkflowParams workflow;
  /// Double-buffer the collective write's round loop (e10_pipeline_flag,
  /// docs/pipeline.md); false restores the classic synchronous ext2ph
  /// round loop for ablations.
  bool pipeline = true;
  /// Concurrent in-flight flush streams per sync thread (e10_sync_streams,
  /// docs/flush_scheduler.md); 1 restores the serial read-back→write drain.
  int sync_streams = 4;
  /// Coalesce adjacent queued sync requests into shared stripe-aligned
  /// flush dispatches (e10_flush_coalesce_flag); false flushes each request
  /// separately for ablations.
  bool flush_coalesce = true;
  /// Two-level collective-write exchange (e10_two_level_flag,
  /// docs/two_level.md): gather each node's contributions to the node
  /// leader over shared memory before a leaders-only inter-node exchange.
  /// false keeps the flat p-to-A shuffle.
  bool two_level = false;
  /// Fault scenario armed on the platform before the run (empty = none).
  fault::FaultPlan faults;
  /// Record a Chrome trace of this run (ExperimentResult::trace_json).
  bool trace = false;
  /// Record causal edges (obs::CausalRecorder) and run the critical-path
  /// analyzer after the run: end-to-end time attributed to phases and
  /// resources, reported in the run report's "critical_path" section and in
  /// ExperimentResult::critical_path. Implies trace collection internally
  /// (the analyzer walks the trace spans) but trace_json stays empty unless
  /// `trace` is also set.
  bool critical_path = false;
  /// Attach the concurrency checker (analysis::ConcurrencyChecker) for the
  /// run: lockset race detection + lock-order cycle analysis, reported in
  /// the run report's "analysis" section. Off by default — with the flag
  /// off every instrumentation hook is a single null-pointer branch.
  bool check_concurrency = false;
};

/// "<aggregators>_<cb size>" label, e.g. "64_4m", as the paper's x axes.
std::string combo_label(const ExperimentSpec& spec);

/// The MPI-IO hints the spec translates to, with spec.workflow.hints
/// entries overriding the derived ones.
mpi::Info experiment_hints(const ExperimentSpec& spec);

struct ExperimentResult {
  std::string combo;
  CacheCase cache_case = CacheCase::disabled;
  WorkflowResult workflow;
  double bandwidth_gib = 0.0;
  /// Max-over-ranks time per collective I/O phase (the stacked figures).
  std::map<prof::Phase, Time> breakdown;
  /// Sync-thread totals summed across all ranks and files (zero when the
  /// cache was disabled); queue_depth_high_water is the max, not the sum.
  cache::SyncStats sync;
  /// hidden_sync / total_sync in [0, 1]; 0 when nothing was synced.
  double flush_overlap_ratio = 0.0;
  /// Flush-scheduler derived figures (all zero when the cache was off):
  /// sync requests coalesced per batch (1.0 with coalescing off, the
  /// coalescing win above it), synced bytes over sync-thread busy time,
  /// and the fraction of stream write service time hidden behind other
  /// streams' work.
  double sync_coalesce_ratio = 0.0;
  double sync_flush_bandwidth_gib = 0.0;
  double sync_stream_overlap_ratio = 0.0;
  /// Engine self-metrics for the whole run (sim::EngineStats): event and
  /// switch counts, peak ready depth, spawn and stack-reuse totals. All
  /// deterministic — same spec, same counters — so CI gates on them and
  /// the bench layer derives host-side events/sec from them.
  sim::EngineStats engine_stats;
  /// Exact fingerprint of the output files, from each file's
  /// ByteStore::content_hash: equal exactly when their bytes are (also
  /// echoed in the report config as "content_checksum").
  std::string content_checksum;
  /// Machine-readable run report (config + phases + metrics + derived).
  obs::Json report;
  /// Chrome trace JSON; empty unless ExperimentSpec::trace was set.
  std::string trace_json;
  /// Concurrency-checker findings (ExperimentSpec::check_concurrency):
  /// lockset races and lock-order cycles. Both 0 on a clean run.
  std::size_t analysis_races = 0;
  std::size_t analysis_cycles = 0;
  std::size_t analysis_shared_accesses = 0;
  /// Critical-path analysis (ExperimentSpec::critical_path): the full
  /// report section (null when off), the dominant category name and the
  /// fraction of end-to-end time the walk attributed to named categories.
  obs::Json critical_path;
  std::string bottleneck;
  double attributed_fraction = 0.0;
  /// Human-readable attribution table (obs::critical_path_table).
  std::string critical_path_text;
  /// Spans still open when the run finished (trace or critical_path on).
  /// Non-zero means an error path leaked a Tracer::Span.
  std::size_t trace_open_spans = 0;
};

using WorkloadFactory =
    std::function<std::unique_ptr<Workload>(const TestbedParams&)>;

/// Builds a fresh platform, runs the workflow, collects results.
ExperimentResult run_experiment(const ExperimentSpec& spec,
                                const WorkloadFactory& factory);

/// The paper's sweep: aggregators {8,16,32,64} x cb {4,16,64 MiB}.
std::vector<std::pair<int, Offset>> paper_sweep();

}  // namespace e10::workloads

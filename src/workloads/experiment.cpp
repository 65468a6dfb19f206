#include "workloads/experiment.h"

#include <cstdio>
#include <memory>

#include "adio/adio_file.h"
#include "analysis/checker.h"
#include "obs/causal.h"
#include "obs/critical_path.h"
#include "obs/report.h"

namespace e10::workloads {

namespace {

/// Exact fingerprint of the run's output files in the global namespace:
/// each file's ByteStore::content_hash (0 for a missing file), folded in
/// file order. Equal fingerprints mean byte-identical files, so pipelined
/// and synchronous runs, or cache enabled and disabled, can be compared.
std::string content_fingerprint(const pfs::Pfs& pfs,
                                const WorkflowParams& workflow) {
  std::uint64_t hash = 0;
  const std::string base = adio::parse_driver_path(workflow.base_path).second;
  for (int k = 0; k < workflow.num_files; ++k) {
    const ByteStore* store = pfs.peek(base + "_" + std::to_string(k));
    hash = hash * 0x100000001B3ULL ^
           (store != nullptr ? store->content_hash() : 0);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

}  // namespace

const char* to_string(CacheCase c) {
  switch (c) {
    case CacheCase::disabled: return "cache_disabled";
    case CacheCase::enabled: return "cache_enabled";
    case CacheCase::theoretical: return "tbw_cache_enabled";
  }
  return "?";
}

std::string combo_label(const ExperimentSpec& spec) {
  return std::to_string(spec.aggregators) + "_" +
         std::to_string(spec.cb_buffer_size / units::MiB) + "m";
}

mpi::Info experiment_hints(const ExperimentSpec& spec) {
  mpi::Info info;
  info.set("romio_cb_write", "enable");
  info.set("cb_nodes", std::to_string(spec.aggregators));
  info.set("cb_buffer_size", std::to_string(spec.cb_buffer_size));
  // The paper fixes the file striping (4 MiB x 4) and the sync buffer
  // (512 KiB); both are the testbed/hint defaults but set them explicitly
  // so the echo shows the experiment's intent.
  info.set("striping_unit",
           std::to_string(spec.testbed.pfs.default_stripe_unit));
  info.set("striping_factor",
           std::to_string(spec.testbed.pfs.default_stripe_count));
  info.set("ind_wr_buffer_size", std::to_string(512 * units::KiB));
  info.set("e10_pipeline_flag", spec.pipeline ? "enable" : "disable");
  info.set("e10_two_level_flag", spec.two_level ? "enable" : "disable");
  info.set("e10_sync_streams", std::to_string(spec.sync_streams));
  info.set("e10_flush_coalesce_flag",
           spec.flush_coalesce ? "enable" : "disable");
  switch (spec.cache_case) {
    case CacheCase::disabled:
      info.set("e10_cache", "disable");
      break;
    case CacheCase::enabled:
      info.set("e10_cache", "enable");
      info.set("e10_cache_path", "/scratch");
      info.set("e10_cache_flush_flag", "flush_immediate");
      info.set("e10_cache_discard_flag", "enable");
      break;
    case CacheCase::theoretical:
      info.set("e10_cache", "enable");
      info.set("e10_cache_path", "/scratch");
      info.set("e10_cache_flush_flag", "none");
      info.set("e10_cache_discard_flag", "enable");
      break;
  }
  // Hints the caller set on the workflow override the derived ones.
  info.merge(spec.workflow.hints);
  return info;
}

ExperimentResult run_experiment(const ExperimentSpec& spec,
                                const WorkloadFactory& factory) {
  Platform platform(spec.testbed);
  // Attach before anything runs so the checker sees every acquisition.
  std::unique_ptr<analysis::ConcurrencyChecker> checker;
  if (spec.check_concurrency) {
    checker = std::make_unique<analysis::ConcurrencyChecker>(platform.engine);
  }
  // The critical-path analyzer walks the trace spans, so it needs the
  // tracer on even when no trace file was requested.
  platform.tracer.set_enabled(spec.trace || spec.critical_path);
  std::unique_ptr<obs::CausalRecorder> causal;
  if (spec.critical_path) {
    causal = std::make_unique<obs::CausalRecorder>(platform.engine,
                                                   &platform.tracer);
  }
  if (!spec.faults.empty()) platform.faults.arm(spec.faults);
  const std::unique_ptr<Workload> workload = factory(spec.testbed);

  WorkflowParams workflow = spec.workflow;
  workflow.hints = experiment_hints(spec);
  // The modified workflow (deferred close) only matters when the cache is
  // in play; the baseline uses the classic close-then-compute workflow.
  workflow.deferred_close =
      spec.workflow.deferred_close && spec.cache_case != CacheCase::disabled;

  ExperimentResult result;
  result.combo = combo_label(spec);
  result.cache_case = spec.cache_case;
  result.workflow = run_workflow(platform, *workload, workflow);
  result.bandwidth_gib = result.workflow.bandwidth_gib;
  result.engine_stats = platform.engine.stats();
  const obs::PhaseTotals& phases = platform.tracer.phase_totals();
  for (std::size_t p = 0; p < prof::kPhaseCount; ++p) {
    const auto phase = static_cast<prof::Phase>(p);
    result.breakdown[phase] = obs::max_over_ranks(phases, phase);
  }

  // Collect the observability outputs before the platform is destroyed.
  namespace names = obs::names;
  const obs::MetricsRegistry& metrics = platform.metrics;
  result.sync.requests = static_cast<std::uint64_t>(
      metrics.counter_value(names::kSyncRequests));
  result.sync.bytes_synced = metrics.counter_value(names::kSyncBytes);
  result.sync.staging_chunks = static_cast<std::uint64_t>(
      metrics.counter_value(names::kSyncChunks));
  result.sync.busy_time = metrics.counter_value(names::kSyncBusyNs);
  result.sync.retries = static_cast<std::uint64_t>(
      metrics.counter_value(names::kSyncRetries));
  result.sync.requeues = static_cast<std::uint64_t>(
      metrics.counter_value(names::kSyncRequeues));
  result.sync.abandoned = static_cast<std::uint64_t>(
      metrics.counter_value(names::kSyncAbandoned));
  result.sync.queue_depth_high_water = static_cast<std::uint64_t>(
      metrics.gauge_high_water(names::kSyncQueueDepth));
  result.flush_overlap_ratio =
      obs::flush_overlap_ratio(platform.metrics, phases);
  {
    // Flush-scheduler figures of merit (satellite of the paper's §III-A
    // drain): how many sync requests coalesced into each batch, the drain
    // bandwidth over sync-thread busy time, and how much stream write
    // service time other streams hid.
    const double members = static_cast<double>(
        metrics.counter_value(names::kSyncBatchMembers));
    const double batches = static_cast<double>(
        metrics.counter_value(names::kSyncBatches));
    result.sync_coalesce_ratio = batches > 0 ? members / batches : 0.0;
    const double busy_s = units::to_seconds(result.sync.busy_time);
    result.sync_flush_bandwidth_gib =
        busy_s > 0
            ? static_cast<double>(result.sync.bytes_synced) / units::GiB /
                  busy_s
            : 0.0;
    const double stream_write_ns = static_cast<double>(
        metrics.counter_value(names::kSyncStreamWriteNs));
    const double stream_hidden_ns = static_cast<double>(
        metrics.counter_value(names::kSyncStreamHiddenNs));
    result.sync_stream_overlap_ratio =
        stream_write_ns > 0 ? stream_hidden_ns / stream_write_ns : 0.0;
  }
  // Layers that keep their own totals publish them once, here.
  platform.pfs.export_metrics(platform.metrics);
  platform.faults.export_metrics(platform.metrics);

  obs::RunReportInputs inputs;
  inputs.config.emplace_back("combo", result.combo);
  inputs.config.emplace_back("cache_case", to_string(spec.cache_case));
  inputs.config.emplace_back("pipeline", spec.pipeline ? "on" : "off");
  inputs.config.emplace_back("sync_streams",
                             std::to_string(spec.sync_streams));
  inputs.config.emplace_back("coalesce", spec.flush_coalesce ? "on" : "off");
  inputs.config.emplace_back("two_level", spec.two_level ? "on" : "off");
  // Output-content fingerprint: pipelined and synchronous runs of the same
  // spec must agree on it (CI asserts this).
  result.content_checksum = content_fingerprint(platform.pfs, workflow);
  inputs.config.emplace_back("content_checksum", result.content_checksum);
  inputs.config.emplace_back("ranks", std::to_string(platform.ranks()));
  inputs.config.emplace_back(
      "num_files", std::to_string(spec.workflow.num_files));
  inputs.config.emplace_back(
      "compute_delay_s",
      std::to_string(units::to_seconds(spec.workflow.compute_delay)));
  for (const std::string& key : workflow.hints.keys()) {
    inputs.config.emplace_back("hint." + key,
                               workflow.hints.get_or(key, ""));
  }
  inputs.phases = &phases;
  inputs.metrics = &platform.metrics;
  inputs.derived["perceived_bandwidth_gib"] = result.bandwidth_gib;
  inputs.derived["flush_overlap_ratio"] = result.flush_overlap_ratio;
  // Engine self-metrics: deterministic scheduler counters (no wall clock),
  // so the CI perf smoke job can gate on them exactly.
  inputs.derived["engine.events"] =
      static_cast<double>(result.engine_stats.events);
  inputs.derived["engine.switches"] =
      static_cast<double>(result.engine_stats.switches);
  inputs.derived["engine.spawned"] =
      static_cast<double>(result.engine_stats.spawned);
  inputs.derived["engine.max_ready_depth"] =
      static_cast<double>(result.engine_stats.max_ready_depth);
  inputs.derived["engine.stack_reuses"] =
      static_cast<double>(result.engine_stats.stack_reuses);
  inputs.derived["total_bytes"] =
      static_cast<double>(result.workflow.total_bytes);
  inputs.derived["io_time_s"] = units::to_seconds(result.workflow.io_time);
  {
    // Write-pipeline occupancy: how much of the aggregator write service
    // time the round loop hid behind the next round's shuffle.
    const double write_ns = static_cast<double>(
        metrics.counter_value(names::kPipelineWriteNs));
    const double hidden_ns = static_cast<double>(
        metrics.counter_value(names::kPipelineHiddenNs));
    inputs.derived["write_round.overlap_ratio"] =
        write_ns > 0 ? hidden_ns / write_ns : 0.0;
    inputs.derived["write_round.stalls"] = static_cast<double>(
        metrics.counter_value(names::kPipelineStalls));
  }
  inputs.derived["sync.coalesce_ratio"] = result.sync_coalesce_ratio;
  inputs.derived["sync.flush_bandwidth_gib"] =
      result.sync_flush_bandwidth_gib;
  inputs.derived["sync.streams.overlap_ratio"] =
      result.sync_stream_overlap_ratio;
  if (!spec.faults.empty()) {
    // The plan; what it did is in the metrics snapshot (fault.*).
    inputs.config.emplace_back("fault_plan", spec.faults.summary());
  }
  if (checker != nullptr) {
    const analysis::AnalysisSummary analysis = checker->summary();
    result.analysis_races = analysis.races.size();
    result.analysis_cycles = analysis.cycles.size();
    result.analysis_shared_accesses = analysis.shared_accesses;
    inputs.analysis = checker->to_json();
  }
  result.report = obs::run_report_json(inputs);

  if (causal != nullptr) {
    const obs::CriticalPathReport path =
        obs::analyze_critical_path(platform.tracer, *causal);
    result.critical_path = obs::critical_path_json(path);
    result.bottleneck = obs::path_category_name(path.bottleneck);
    result.attributed_fraction = path.attributed_fraction;
    result.critical_path_text = obs::critical_path_table(path);
    result.report.set("critical_path", result.critical_path);
  }
  if (spec.trace || spec.critical_path) {
    result.trace_open_spans = platform.tracer.open_spans();
  }
  if (spec.trace) result.trace_json = platform.tracer.to_json();
  return result;
}

std::vector<std::pair<int, Offset>> paper_sweep() {
  std::vector<std::pair<int, Offset>> sweep;
  for (const int aggregators : {8, 16, 32, 64}) {
    for (const Offset cb : {4 * units::MiB, 16 * units::MiB, 64 * units::MiB}) {
      sweep.emplace_back(aggregators, cb);
    }
  }
  return sweep;
}

}  // namespace e10::workloads

// End-to-end observability: run a real experiment on the small testbed and
// check that the trace, the metrics and the derived quantities line up with
// what the pipeline actually did.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "fault/fault_injector.h"
#include "mpiio/file.h"
#include "obs/json.h"
#include "pfs/pfs.h"
#include "support/quick_point.h"
#include "workloads/experiment.h"
#include "workloads/workload.h"

namespace e10::workloads {
namespace {

using namespace e10::units;

ExperimentSpec small_spec(CacheCase cache_case, Time compute_delay) {
  ExperimentSpec spec;
  spec.testbed = small_testbed();
  spec.aggregators = 2;
  spec.cb_buffer_size = 256 * KiB;
  spec.cache_case = cache_case;
  spec.workflow.base_path = "/pfs/obs";
  spec.workflow.num_files = 3;
  spec.workflow.compute_delay = compute_delay;
  spec.workflow.include_last_phase = false;
  return spec;
}

WorkloadFactory tiny_ior() {
  return [](const TestbedParams&) {
    IorWorkload::Params params;
    params.block_bytes = 256 * KiB;
    params.segments = 2;
    return std::make_unique<IorWorkload>(params);
  };
}

TEST(ObsWorkload, LongComputeHidesTheFlush) {
  // The paper's point: with enough compute between files, the background
  // sync disappears behind it. The overlap ratio must see that.
  const ExperimentResult result =
      run_experiment(small_spec(CacheCase::enabled, seconds(10)), tiny_ior());
  EXPECT_GT(result.sync.requests, 0u);
  EXPECT_GT(result.sync.bytes_synced, 0);
  EXPECT_GT(result.sync.staging_chunks, 0u);
  EXPECT_GE(result.sync.queue_depth_high_water, 1u);
  EXPECT_GT(result.sync.busy_time, 0);
  EXPECT_GT(result.flush_overlap_ratio, 0.0);
  EXPECT_LE(result.flush_overlap_ratio, 1.0);
  // With a 10 s compute phase and ~1.5 MiB of data, nearly all of the sync
  // should be hidden.
  EXPECT_GT(result.flush_overlap_ratio, 0.5);
}

TEST(ObsWorkload, NoComputeExposesTheFlush) {
  const ExperimentResult hidden =
      run_experiment(small_spec(CacheCase::enabled, seconds(10)), tiny_ior());
  const ExperimentResult exposed =
      run_experiment(small_spec(CacheCase::enabled, 0), tiny_ior());
  EXPECT_LT(exposed.flush_overlap_ratio, hidden.flush_overlap_ratio);
}

TEST(ObsWorkload, CacheDisabledHasNoSyncWork) {
  const ExperimentResult result = run_experiment(
      small_spec(CacheCase::disabled, milliseconds(100)), tiny_ior());
  EXPECT_EQ(result.sync.requests, 0u);
  EXPECT_DOUBLE_EQ(result.flush_overlap_ratio, 0.0);
  // The report is emitted regardless of the cache case.
  EXPECT_TRUE(result.report.is_object());
}

TEST(ObsWorkload, RunReportMatchesTheRun) {
  const ExperimentResult result = run_experiment(
      small_spec(CacheCase::enabled, milliseconds(500)), tiny_ior());
  const obs::Json& report = result.report;
  EXPECT_EQ(report.at("config").at("combo").as_string(), result.combo);
  EXPECT_EQ(report.at("config").at("cache_case").as_string(),
            "cache_enabled");
  EXPECT_EQ(report.at("config").at("ranks").as_string(), "8");
  EXPECT_EQ(report.at("config").at("hint.e10_cache").as_string(), "enable");
  EXPECT_DOUBLE_EQ(
      report.at("derived").at("perceived_bandwidth_gib").as_number(),
      result.bandwidth_gib);
  EXPECT_DOUBLE_EQ(report.at("derived").at("flush_overlap_ratio").as_number(),
                   result.flush_overlap_ratio);
  // Metrics snapshot: the cache counted every collective write, and the
  // PFS device counters were exported under pfs.server.<i>.device.
  const obs::Json& counters = report.at("metrics").at("counters");
  EXPECT_GT(counters.at("cache.writes").as_int(), 0);
  EXPECT_GT(counters.at("cache.sync.bytes_synced").as_int(), 0);
  EXPECT_TRUE(counters.find("pfs.server.0.requests") != nullptr);
  EXPECT_TRUE(counters.find("pfs.server.0.device.bytes_written") != nullptr);
  // The phase table carries the breakdown the figures are built from.
  EXPECT_GE(report.at("phases").at("write_contig").at("max_s").as_number(),
            0.0);
}

TEST(ObsWorkload, TraceShowsThePipelinePerRank) {
  ExperimentSpec spec = small_spec(CacheCase::enabled, milliseconds(500));
  spec.trace = true;
  const ExperimentResult result = run_experiment(spec, tiny_ior());
  ASSERT_FALSE(result.trace_json.empty());

  const auto parsed = obs::Json::parse(result.trace_json);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  const obs::Json& events = parsed.value().at("traceEvents");

  std::set<std::string> span_names;
  std::set<std::int64_t> span_tracks;
  std::set<std::string> track_names;
  for (const obs::Json& e : events.elements()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "X") {
      span_names.insert(e.at("name").as_string());
      span_tracks.insert(e.at("tid").as_int());
    } else if (ph == "M" && e.at("name").as_string() == "thread_name") {
      track_names.insert(e.at("args").at("name").as_string());
    }
  }
  // The collective-write pipeline phases, on every rank's track.
  for (const char* phase : {"shuffle_all2all", "exchange", "write_contig",
                            "write_round", "compute", "flush_batch"}) {
    EXPECT_TRUE(span_names.count(phase) == 1) << phase;
  }
  EXPECT_GE(span_tracks.size(), 8u);  // 8 ranks + sync-thread tracks
  EXPECT_TRUE(track_names.count("rank 0") == 1);
  EXPECT_TRUE(track_names.count("rank 7") == 1);
  // Sync threads get their own labelled tracks.
  bool has_sync_track = false;
  for (const std::string& name : track_names) {
    if (name.find("sync r") == 0) has_sync_track = true;
  }
  EXPECT_TRUE(has_sync_track);
}

TEST(ObsWorkload, TraceSpansAndPhaseTableAreOneRecord) {
  // Every phase interval is recorded once: per phase, the largest per-rank
  // sum of the trace's spans on the "rank N" tracks is the phase table's
  // max_s. Span durations are microseconds with three decimals, so the
  // sums are exact nanoseconds.
  std::vector<std::pair<ExperimentSpec, WorkloadFactory>> inputs;
  inputs.emplace_back(small_spec(CacheCase::enabled, milliseconds(500)),
                      tiny_ior());
  inputs.emplace_back(quick_collperf_spec(4, 4 * MiB, CacheCase::enabled, 2),
                      quick_collperf());
  for (auto& [spec, factory] : inputs) {
    spec.trace = true;
    const ExperimentResult result = run_experiment(spec, factory);
    const auto parsed = obs::Json::parse(result.trace_json);
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
    const obs::Json& events = parsed.value().at("traceEvents");

    std::set<std::int64_t> rank_tracks;
    for (const obs::Json& e : events.elements()) {
      if (e.at("ph").as_string() == "M" &&
          e.at("name").as_string() == "thread_name" &&
          e.at("args").at("name").as_string().starts_with("rank ")) {
        rank_tracks.insert(e.at("tid").as_int());
      }
    }
    std::map<std::string, std::map<std::int64_t, Time>> sums;  // name, tid
    for (const obs::Json& e : events.elements()) {
      if (e.at("ph").as_string() != "X" ||
          rank_tracks.count(e.at("tid").as_int()) == 0) {
        continue;
      }
      sums[e.at("name").as_string()][e.at("tid").as_int()] +=
          std::llround(e.at("dur").as_number() * 1000.0);
    }
    for (std::size_t p = 0; p < prof::kPhaseCount; ++p) {
      const char* name = prof::phase_name(static_cast<prof::Phase>(p));
      Time traced = 0;
      for (const auto& [tid, sum] : sums[name]) traced = std::max(traced, sum);
      const double max_s =
          result.report.at("phases").at(name).at("max_s").as_number();
      EXPECT_EQ(traced, std::llround(max_s * 1e9))
          << result.combo << " " << name;
    }
  }
}

TEST(ObsWorkload, CriticalPathAttributesTheRun) {
  ExperimentSpec spec = small_spec(CacheCase::enabled, milliseconds(500));
  spec.critical_path = true;
  const ExperimentResult result = run_experiment(spec, tiny_ior());

  // The analyzer names a bottleneck and accounts for (nearly) all of the
  // end-to-end virtual time.
  EXPECT_FALSE(result.bottleneck.empty());
  EXPECT_GE(result.attributed_fraction, 0.95);
  EXPECT_LE(result.attributed_fraction, 1.0 + 1e-9);
  ASSERT_TRUE(result.critical_path.is_object());
  const obs::Json& cp = result.critical_path;
  EXPECT_FALSE(cp.at("truncated").as_bool());
  EXPECT_GT(cp.at("hops").as_int(), 0);
  EXPECT_GT(cp.at("total_s").as_number(), 0.0);
  EXPECT_TRUE(cp.find("categories") != nullptr);
  // The per-phase tails over ranks are in the report's phase table.
  const obs::Json& exchange = result.report.at("phases").at("exchange");
  EXPECT_GE(exchange.at("p99_s").as_number(),
            exchange.at("p50_s").as_number());
  // The run report embeds the same section.
  EXPECT_TRUE(result.report.find("critical_path") != nullptr);
  // critical_path alone does not produce a trace file.
  EXPECT_TRUE(result.trace_json.empty());
  EXPECT_EQ(result.trace_open_spans, 0u);
}

TEST(ObsWorkload, CriticalPathAcrossCacheCases) {
  // Attribution holds on all three measurement cases, not just the one the
  // paper features, on the small testbed and on the quick sweep's 4_4m and
  // 4_16m points: the walk covers >= 95% of the end-to-end time without
  // truncation, names a bottleneck, and its category fractions sum to 1.
  std::vector<std::pair<ExperimentSpec, WorkloadFactory>> inputs;
  for (const CacheCase cache_case :
       {CacheCase::disabled, CacheCase::enabled, CacheCase::theoretical}) {
    inputs.emplace_back(small_spec(cache_case, milliseconds(200)),
                        tiny_ior());
    for (const Offset cb : {4 * MiB, 16 * MiB}) {
      inputs.emplace_back(quick_collperf_spec(4, cb, cache_case, 2),
                          quick_collperf());
    }
  }
  for (auto& [spec, factory] : inputs) {
    spec.critical_path = true;
    const ExperimentResult result = run_experiment(spec, factory);
    const std::string where =
        result.combo + " " + to_string(spec.cache_case);
    EXPECT_GE(result.attributed_fraction, 0.95) << where;
    EXPECT_FALSE(result.bottleneck.empty()) << where;
    EXPECT_FALSE(result.critical_path.at("truncated").as_bool()) << where;
    double fractions = 0.0;
    for (const auto& [name, category] :
         result.critical_path.at("categories").members()) {
      fractions += category.at("fraction").as_number();
    }
    EXPECT_NEAR(fractions, 1.0, 0.01) << where;
  }
}

TEST(ObsWorkload, TracingDoesNotChangeTheRun) {
  // Byte-identical outputs and identical virtual timing with the tracer,
  // causal recorder and analyzer all attached.
  ExperimentSpec plain = small_spec(CacheCase::enabled, milliseconds(500));
  ExperimentSpec traced = plain;
  traced.trace = true;
  traced.critical_path = true;
  const ExperimentResult a = run_experiment(plain, tiny_ior());
  const ExperimentResult b = run_experiment(traced, tiny_ior());
  EXPECT_EQ(a.report.at("config").at("content_checksum").as_string(),
            b.report.at("config").at("content_checksum").as_string());
  EXPECT_DOUBLE_EQ(a.report.at("derived").at("io_time_s").as_number(),
                   b.report.at("derived").at("io_time_s").as_number());
  EXPECT_DOUBLE_EQ(a.bandwidth_gib, b.bandwidth_gib);
  // The phase table is the same record whether or not spans are traced.
  EXPECT_EQ(a.report.at("phases").dump(), b.report.at("phases").dump());
}

TEST(ObsWorkload, FaultedRunLeavesNoDanglingSpans) {
  // Error paths in the sync thread (retries, requeues, abandonment) must
  // close every span they opened; same for rank crashes mid-collective.
  ExperimentSpec spec = small_spec(CacheCase::enabled, milliseconds(200));
  spec.trace = true;
  spec.critical_path = true;
  spec.faults = fault::FaultPlan::parse("pfs_write=0.2/timed_out; seed=11")
                    .value();
  const ExperimentResult result = run_experiment(spec, tiny_ior());
  EXPECT_GT(result.sync.retries + result.sync.requeues +
                result.sync.abandoned,
            0u);
  EXPECT_EQ(result.trace_open_spans, 0u);
  // The trace is still schema-valid JSON.
  EXPECT_TRUE(obs::Json::parse(result.trace_json).is_ok());

  // The quick sweep's 4_4m point under transient write faults and a server
  // outage: the report records the plan, both fault kinds fire, nothing
  // crashes and no span is left open.
  ExperimentSpec quick = quick_collperf_spec(4, 4 * MiB, CacheCase::enabled, 1);
  quick.trace = true;
  quick.faults =
      fault::FaultPlan::parse("pfs_write=2%/timed_out; outage=1@1s-2s; seed=7")
          .value();
  const ExperimentResult faulted = run_experiment(quick, quick_collperf());
  EXPECT_TRUE(faulted.report.at("config").find("fault_plan") != nullptr);
  const obs::Json& counters = faulted.report.at("metrics").at("counters");
  EXPECT_GT(counters.at("fault.injected").as_int(), 0);
  EXPECT_GT(counters.at("fault.outage_rejections").as_int(), 0);
  EXPECT_EQ(counters.at("fault.crashes").as_int(), 0);
  EXPECT_EQ(faulted.trace_open_spans, 0u);
}

TEST(ObsWorkload, OutageRunLeavesNoDanglingSpans) {
  ExperimentSpec spec = small_spec(CacheCase::enabled, milliseconds(100));
  spec.trace = true;
  spec.faults =
      fault::FaultPlan::parse("outage=0@1ms-50ms; seed=3").value();
  const ExperimentResult result = run_experiment(spec, tiny_ior());
  EXPECT_EQ(result.trace_open_spans, 0u);
}

/// The totals the PFS and the fault injector keep themselves, copied when
/// run_experiment destroys its workload: after the report is built, before
/// the platform goes.
struct LayerTotals {
  pfs::PfsStats pfs;
  fault::FaultInjector::Stats faults;
  bool read = false;
};

class TotalsProbe final : public Workload {
 public:
  TotalsProbe(std::unique_ptr<Workload> inner, LayerTotals* out)
      : inner_(std::move(inner)), out_(out) {}
  TotalsProbe(const TotalsProbe&) = delete;
  TotalsProbe& operator=(const TotalsProbe&) = delete;
  ~TotalsProbe() override {
    if (ctx_ == nullptr) return;
    out_->pfs = ctx_->pfs.stats();
    out_->faults = ctx_->fault.stats();
    out_->read = true;
  }

  std::string name() const override { return inner_->name(); }
  Offset bytes_per_rank(const mpi::Comm& comm) const override {
    return inner_->bytes_per_rank(comm);
  }
  Status write_file(mpiio::File& file, const mpi::Comm& comm,
                    int file_index) const override {
    ctx_ = file.raw()->ctx;
    return inner_->write_file(file, comm, file_index);
  }

 private:
  std::unique_ptr<Workload> inner_;
  LayerTotals* out_;
  mutable adio::IoContext* ctx_ = nullptr;
};

WorkloadFactory probed(WorkloadFactory inner, LayerTotals* out) {
  return [inner = std::move(inner), out](const TestbedParams& testbed) {
    return std::make_unique<TotalsProbe>(inner(testbed), out);
  };
}

std::int64_t report_counter(const ExperimentResult& result,
                            const std::string& name) {
  return result.report.at("metrics").at("counters").at(name).as_int();
}

TEST(ObsWorkload, ReportPublishesThePfsLockTotals) {
  // `bench_sweep flashio --quick --files=2` at 2_4m, cache disabled: the
  // two aggregators' writes wait on, and take over, each other's stripe
  // locks.
  LayerTotals totals;
  const ExperimentResult result = run_experiment(
      quick_flashio_spec(2, 4 * MiB, CacheCase::disabled, 2),
      probed([](const TestbedParams&) {
        return std::make_unique<FlashIoWorkload>();
      }, &totals));
  ASSERT_TRUE(totals.read);
  ASSERT_GT(totals.pfs.lock_waits, 0u);
  ASSERT_GT(totals.pfs.lock_handoffs, 0u);
  EXPECT_EQ(report_counter(result, "pfs.lock.waits"),
            static_cast<std::int64_t>(totals.pfs.lock_waits));
  EXPECT_EQ(report_counter(result, "pfs.lock.wait_ns"),
            totals.pfs.lock_wait_time);
  EXPECT_EQ(report_counter(result, "pfs.lock.handoffs"),
            static_cast<std::int64_t>(totals.pfs.lock_handoffs));
}

TEST(ObsWorkload, ReportPublishesTheFaultTotals) {
  // docs/fault_tolerance.md's example: `bench_sweep collperf --quick
  // --combos=4_4m --cases=enabled` (4 files) under transient write faults
  // and a server outage.
  ExperimentSpec spec = quick_collperf_spec(4, 4 * MiB, CacheCase::enabled, 4);
  spec.faults =
      fault::FaultPlan::parse("pfs_write=2%/timed_out; outage=1@1s-2s; seed=7")
          .value();
  LayerTotals totals;
  const ExperimentResult result =
      run_experiment(spec, probed(quick_collperf(), &totals));
  ASSERT_TRUE(totals.read);
  const fault::FaultInjector::Stats& faults = totals.faults;
  ASSERT_GT(faults.injected, 0);
  ASSERT_GT(faults.outage_rejections, 0);
  EXPECT_EQ(report_counter(result, "fault.injected"), faults.injected);
  EXPECT_EQ(report_counter(result, "fault.outage_rejections"),
            faults.outage_rejections);
  EXPECT_EQ(report_counter(result, "fault.crashes"), faults.crashes);
  std::int64_t by_op = 0;
  for (int op = 0; op < fault::kFaultOpCount; ++op) {
    const std::int64_t injected =
        faults.injected_by_op[static_cast<std::size_t>(op)];
    EXPECT_EQ(report_counter(result,
                             std::string("fault.") +
                                 fault::fault_op_name(
                                     static_cast<fault::FaultOp>(op)) +
                                 ".injected"),
              injected);
    by_op += injected;
  }
  EXPECT_EQ(by_op, faults.injected);

  // Without a plan the injector publishes nothing.
  const ExperimentResult clean = run_experiment(
      small_spec(CacheCase::enabled, milliseconds(100)), tiny_ior());
  for (const auto& [name, value] :
       clean.report.at("metrics").at("counters").members()) {
    EXPECT_FALSE(name.starts_with("fault.")) << name;
  }
}

TEST(ObsWorkload, TracingOffByDefault) {
  const ExperimentResult result = run_experiment(
      small_spec(CacheCase::enabled, milliseconds(100)), tiny_ior());
  EXPECT_TRUE(result.trace_json.empty());
}

}  // namespace
}  // namespace e10::workloads

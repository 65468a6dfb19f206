#include "workloads/workflow.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "workloads/experiment.h"

namespace e10::workloads {
namespace {

using namespace e10::units;

IorWorkload::Params tiny_ior() {
  IorWorkload::Params params;
  params.block_bytes = 256 * KiB;
  params.segments = 2;
  return params;
}

mpi::Info hints(const std::string& cache, const std::string& flush) {
  mpi::Info info;
  info.set("romio_cb_write", "enable");
  info.set("cb_buffer_size", "262144");
  info.set("e10_cache", cache);
  if (cache != "disable") {
    info.set("e10_cache_path", "/scratch");
    info.set("e10_cache_flush_flag", flush);
    info.set("e10_cache_discard_flag", "enable");
  }
  return info;
}

TEST(Workflow, WritesAllFilesAndComputesBandwidth) {
  Platform p(small_testbed());
  const IorWorkload workload(tiny_ior());
  WorkflowParams params;
  params.base_path = "/pfs/wf";
  params.num_files = 3;
  params.compute_delay = seconds(1);
  params.deferred_close = false;
  params.hints = hints("disable", "");
  const WorkflowResult result = run_workflow(p, workload, params);
  ASSERT_EQ(result.phases.size(), 3u);
  for (int k = 0; k < 3; ++k) {
    EXPECT_TRUE(p.pfs.exists("/pfs/wf_" + std::to_string(k))) << k;
    EXPECT_GT(result.phases[static_cast<std::size_t>(k)].write_time, 0);
  }
  EXPECT_EQ(result.total_bytes, 3 * 8 * 2 * 256 * KiB);
  EXPECT_GT(result.bandwidth_gib, 0.0);
  // Compute delays are not part of the I/O time.
  EXPECT_LT(result.io_time, seconds(3));
}

TEST(Workflow, DeferredCloseHidesSyncBehindCompute) {
  const IorWorkload workload(tiny_ior());
  auto run_with_delay = [&](Time delay) {
    Platform p(small_testbed());
    WorkflowParams params;
    params.base_path = "/pfs/wfd";
    params.num_files = 3;
    params.compute_delay = delay;
    params.deferred_close = true;
    params.include_last_phase = false;
    params.hints = hints("enable", "flush_immediate");
    return run_workflow(p, workload, params);
  };
  const WorkflowResult hidden = run_with_delay(seconds(10));
  const WorkflowResult exposed = run_with_delay(0);
  // With a long compute phase the intermediate residuals vanish.
  for (std::size_t k = 0; k + 1 < hidden.phases.size(); ++k) {
    EXPECT_LT(hidden.phases[k].residual_close, milliseconds(5)) << k;
  }
  // With no compute at all, the residual close pays the sync.
  Time total_residual = 0;
  for (std::size_t k = 0; k + 1 < exposed.phases.size(); ++k) {
    total_residual += exposed.phases[k].residual_close;
  }
  EXPECT_GT(total_residual, milliseconds(5));
  EXPECT_GT(hidden.bandwidth_gib, exposed.bandwidth_gib);
}

TEST(Workflow, IncludeLastPhaseLowersBandwidth) {
  const IorWorkload workload(tiny_ior());
  auto run_with = [&](bool include_last) {
    Platform p(small_testbed());
    WorkflowParams params;
    params.base_path = "/pfs/wfl";
    params.num_files = 2;
    params.compute_delay = seconds(10);
    params.deferred_close = true;
    params.include_last_phase = include_last;
    params.hints = hints("enable", "flush_immediate");
    return run_workflow(p, workload, params);
  };
  const WorkflowResult with = run_with(true);
  const WorkflowResult without = run_with(false);
  // The last file's sync can never be hidden (no compute follows): counting
  // it reduces the average bandwidth — the coll_perf vs IOR accounting
  // difference in the paper.
  EXPECT_LT(with.bandwidth_gib, without.bandwidth_gib);
}

TEST(Workflow, CacheEnabledFilesAreComplete) {
  Platform p(small_testbed());
  const IorWorkload workload(tiny_ior());
  WorkflowParams params;
  params.base_path = "/pfs/wfc";
  params.num_files = 2;
  params.compute_delay = milliseconds(100);
  params.deferred_close = true;
  params.hints = hints("enable", "flush_immediate");
  (void)run_workflow(p, workload, params);
  for (int k = 0; k < 2; ++k) {
    const auto info =
        p.pfs.stat_path("/pfs/wfc_" + std::to_string(k));
    ASSERT_TRUE(info.is_ok()) << k;
    EXPECT_EQ(info.value().size, 8 * 2 * 256 * KiB) << k;
  }
  // All cache files were discarded.
  for (std::size_t node = 0; node < p.params().compute_nodes; ++node) {
    EXPECT_EQ(p.lfs.at(node).used_bytes(), 0);
  }
}

TEST(Experiment, HintsMatchSpec) {
  ExperimentSpec spec;
  spec.aggregators = 16;
  spec.cb_buffer_size = 16 * MiB;
  spec.cache_case = CacheCase::enabled;
  const mpi::Info info = experiment_hints(spec);
  EXPECT_EQ(info.get_or("cb_nodes", ""), "16");
  EXPECT_EQ(info.get_or("cb_buffer_size", ""), "16777216");
  EXPECT_EQ(info.get_or("e10_cache", ""), "enable");
  EXPECT_EQ(info.get_or("e10_cache_flush_flag", ""), "flush_immediate");
  EXPECT_EQ(combo_label(spec), "16_16m");

  spec.cache_case = CacheCase::theoretical;
  EXPECT_EQ(experiment_hints(spec).get_or("e10_cache_flush_flag", ""), "none");
  spec.cache_case = CacheCase::disabled;
  EXPECT_EQ(experiment_hints(spec).get_or("e10_cache", ""), "disable");
}

TEST(Experiment, PaperSweepHasTwelveCombos) {
  const auto sweep = paper_sweep();
  EXPECT_EQ(sweep.size(), 12u);
  EXPECT_EQ(sweep.front(), std::make_pair(8, 4 * MiB));
  EXPECT_EQ(sweep.back(), std::make_pair(64, 64 * MiB));
}

TEST(Experiment, RunsEndToEndAtTestScale) {
  ExperimentSpec spec;
  spec.testbed = small_testbed();
  spec.aggregators = 4;
  spec.cb_buffer_size = 256 * KiB;
  spec.cache_case = CacheCase::enabled;
  spec.workflow.base_path = "/pfs/exp";
  spec.workflow.num_files = 2;
  spec.workflow.compute_delay = seconds(2);
  const auto result = run_experiment(spec, [](const TestbedParams&) {
    return std::make_unique<IorWorkload>(IorWorkload::Params{256 * KiB, 2});
  });
  EXPECT_EQ(result.combo, "4_0m");  // 256 KiB rounds down to 0 MiB label
  EXPECT_GT(result.bandwidth_gib, 0.0);
  EXPECT_GT(result.breakdown.at(prof::Phase::write_contig), 0);
  EXPECT_GT(result.breakdown.at(prof::Phase::shuffle_all2all), 0);
}

TEST(Experiment, WorkflowHintsAndCloseModeReachTheRun) {
  // The caller's workflow hints override the spec-derived ones, and the
  // report echoes the set the files were opened with.
  ExperimentSpec spec;
  spec.testbed = small_testbed();
  spec.aggregators = 4;
  spec.cb_buffer_size = 256 * KiB;
  spec.cache_case = CacheCase::enabled;
  spec.workflow.base_path = "/pfs/exp_close";
  spec.workflow.num_files = 3;
  spec.workflow.compute_delay = seconds(2);
  spec.workflow.hints.set("ind_wr_buffer_size", "131072");
  spec.workflow.hints.set("e10_cache_journal", "enable");
  const auto factory = [](const TestbedParams&) {
    return std::make_unique<IorWorkload>(IorWorkload::Params{256 * KiB, 2});
  };
  const ExperimentResult deferred = run_experiment(spec, factory);
  const obs::Json& config = deferred.report.at("config");
  for (const auto& [key, value] :
       {std::pair{"hint.ind_wr_buffer_size", "131072"},
        std::pair{"hint.e10_cache_journal", "enable"},
        std::pair{"hint.cb_nodes", "4"}}) {
    const obs::Json* echoed = config.find(key);
    EXPECT_EQ(echoed != nullptr ? echoed->as_string() : "(absent)", value)
        << key;
  }

  // Closing each file before its compute phase (the standard workflow)
  // pays every file's flush in its residual, as the last file always does;
  // deferred, the compute phase hides every flush but the last.
  spec.workflow.deferred_close = false;
  const ExperimentResult closed = run_experiment(spec, factory);
  ASSERT_EQ(closed.workflow.phases.size(), 3u);
  const Time last_flush = deferred.workflow.phases.back().residual_close;
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_GT(closed.workflow.phases[k].residual_close, last_flush / 2) << k;
    if (k + 1 < 3) {
      EXPECT_LT(deferred.workflow.phases[k].residual_close, last_flush / 10)
          << k;
    }
  }
}

}  // namespace
}  // namespace e10::workloads

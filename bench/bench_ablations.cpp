// Ablation benches for the design choices DESIGN.md calls out:
//   A1 stripe-aligned vs even file domains (ufs vs beegfs driver)
//   A2 flush_immediate vs flush_onclose
//   A3 ind_wr_buffer_size sweep (sync staging granularity)
//   A4 aggregator / compute-node ratio vs sync hiding
//   A5 compute-delay sweep (the C vs Ts crossover of Eq. 1)
//   A6 coherent-mode locking overhead
//   A7 standard vs modified (deferred-close) workflow — the Fig. 3 change
//
// Flags: --quick for the scaled-down testbed, --files=N (default 4). Each
// ablation pins the parameters the paper used except the one it varies.
#include <cstdio>

#include "bench/bench_common.h"
#include "obs/report.h"
#include "workloads/workload.h"

namespace {

using namespace e10;
using namespace e10::units;
using namespace e10::workloads;

struct Knobs {
  int aggregators;
  Offset cb;
  int files;
  Time compute;
  TestbedParams testbed;
};

ExperimentResult run_case(const Knobs& knobs, CacheCase cache_case,
                          const std::string& base_path,
                          void (*tweak)(WorkflowParams&, mpi::Info&)) {
  ExperimentSpec spec;
  spec.testbed = knobs.testbed;
  spec.aggregators = knobs.aggregators;
  spec.cb_buffer_size = knobs.cb;
  spec.cache_case = cache_case;
  spec.workflow.base_path = base_path;
  spec.workflow.num_files = knobs.files;
  spec.workflow.compute_delay = knobs.compute;
  spec.workflow.include_last_phase = true;

  Platform platform(spec.testbed);
  IorWorkload workload;
  WorkflowParams workflow = spec.workflow;
  workflow.hints = experiment_hints(spec);
  workflow.deferred_close = cache_case != CacheCase::disabled;
  if (tweak != nullptr) tweak(workflow, workflow.hints);

  ExperimentResult result;
  result.combo = combo_label(spec);
  result.cache_case = cache_case;
  result.workflow = run_workflow(platform, workload, workflow);
  result.bandwidth_gib = result.workflow.bandwidth_gib;
  for (std::size_t p = 0; p < prof::kPhaseCount; ++p) {
    const auto phase = static_cast<prof::Phase>(p);
    result.breakdown[phase] =
        obs::max_over_ranks(platform.tracer.phase_totals(), phase);
  }
  return result;
}

Knobs default_knobs(const bench::Options& options) {
  Knobs knobs;
  knobs.testbed = bench::testbed_for(options.quick);
  knobs.aggregators = options.quick ? 16 : 64;
  knobs.cb = 4 * MiB;
  knobs.files = options.files;
  knobs.compute = bench::compute_delay_for(options.quick);
  return knobs;
}

void ablation_filedomains(const bench::Options& options) {
  std::printf("\n## A1: file-domain partitioning (even vs stripe-aligned)\n");
  std::printf("%-22s %12s %14s %14s\n", "driver", "BW [GiB/s]", "lock_waits",
              "lock_handoffs");
  Knobs knobs = default_knobs(options);
  // A non-power-of-two aggregator count makes the even (ufs) split land
  // mid-stripe, so neighbouring aggregators false-share stripes; the
  // beegfs driver aligns domains and avoids it (paper footnote 1).
  knobs.aggregators = options.quick ? 6 : 24;
  for (const char* driver : {"ufs", "beegfs"}) {
    Platform platform(knobs.testbed);
    IorWorkload workload;
    ExperimentSpec spec;
    spec.testbed = knobs.testbed;
    spec.aggregators = knobs.aggregators;
    spec.cb_buffer_size = knobs.cb;
    spec.cache_case = CacheCase::disabled;
    WorkflowParams workflow;
    workflow.base_path = std::string(driver) + ":/pfs/a1";
    workflow.num_files = knobs.files;
    workflow.compute_delay = knobs.compute;
    workflow.deferred_close = false;
    workflow.hints = experiment_hints(spec);
    const WorkflowResult result = run_workflow(platform, workload, workflow);
    std::printf("%-22s %12.2f %14llu %14llu\n", driver, result.bandwidth_gib,
                static_cast<unsigned long long>(platform.pfs.stats().lock_waits),
                static_cast<unsigned long long>(
                    platform.pfs.stats().lock_handoffs));
    std::fflush(stdout);
  }
}

void ablation_flushpolicy(const bench::Options& options) {
  std::printf("\n## A2: flush policy (immediate vs onclose)\n");
  std::printf("%-22s %12s %18s\n", "e10_cache_flush_flag", "BW [GiB/s]",
              "not_hidden_sync [s]");
  const Knobs knobs = default_knobs(options);
  static const char* flush_flag;
  for (const char* flag : {"flush_immediate", "flush_onclose"}) {
    flush_flag = flag;
    const auto result = run_case(
        knobs, CacheCase::enabled, "/pfs/a2",
        [](WorkflowParams&, mpi::Info& hints) {
          hints.set("e10_cache_flush_flag", flush_flag);
        });
    std::printf("%-22s %12.2f %18.2f\n", flag, result.bandwidth_gib,
                units::to_seconds(
                    result.breakdown.at(prof::Phase::not_hidden_sync)));
    std::fflush(stdout);
  }
}

void ablation_syncbuffer(const bench::Options& options) {
  std::printf("\n## A3: ind_wr_buffer_size (sync staging granularity)\n");
  std::printf("%-22s %12s %18s\n", "ind_wr_buffer_size", "BW [GiB/s]",
              "not_hidden_sync [s]");
  const Knobs knobs = default_knobs(options);
  static Offset buffer_bytes;
  for (const Offset size : {64 * KiB, 256 * KiB, 512 * KiB, 2 * MiB, 8 * MiB}) {
    buffer_bytes = size;
    const auto result = run_case(
        knobs, CacheCase::enabled, "/pfs/a3",
        [](WorkflowParams&, mpi::Info& hints) {
          hints.set("ind_wr_buffer_size", std::to_string(buffer_bytes));
        });
    std::printf("%-22s %12.2f %18.2f\n", format_bytes(size).c_str(),
                result.bandwidth_gib,
                units::to_seconds(
                    result.breakdown.at(prof::Phase::not_hidden_sync)));
    std::fflush(stdout);
  }
}

void ablation_aggratio(const bench::Options& options) {
  std::printf("\n## A4: aggregator / node ratio vs sync hiding\n");
  std::printf("%-12s %12s %18s %14s\n", "aggregators", "BW [GiB/s]",
              "not_hidden_sync [s]", "TBW [GiB/s]");
  Knobs knobs = default_knobs(options);
  const int max_aggs = static_cast<int>(knobs.testbed.compute_nodes);
  for (int aggregators = max_aggs / 8; aggregators <= max_aggs;
       aggregators *= 2) {
    knobs.aggregators = aggregators;
    const auto enabled = run_case(knobs, CacheCase::enabled, "/pfs/a4",
                                  nullptr);
    const auto tbw = run_case(knobs, CacheCase::theoretical, "/pfs/a4t",
                              nullptr);
    std::printf("%-12d %12.2f %18.2f %14.2f\n", aggregators,
                enabled.bandwidth_gib,
                units::to_seconds(
                    enabled.breakdown.at(prof::Phase::not_hidden_sync)),
                tbw.bandwidth_gib);
    std::fflush(stdout);
  }
}

void ablation_computedelay(const bench::Options& options) {
  std::printf("\n## A5: compute delay sweep (Eq. 1 crossover)\n");
  std::printf("%-14s %12s %18s\n", "compute [s]", "BW [GiB/s]",
              "not_hidden_sync [s]");
  Knobs knobs = default_knobs(options);
  // Few aggregators: Ts is large, so the crossover is visible.
  knobs.aggregators = static_cast<int>(knobs.testbed.compute_nodes) / 8;
  for (const double delay : {0.0, 7.5, 15.0, 30.0, 60.0}) {
    knobs.compute = units::seconds_f(options.quick ? delay / 8.0 : delay);
    const auto result = run_case(knobs, CacheCase::enabled, "/pfs/a5",
                                 nullptr);
    std::printf("%-14.1f %12.2f %18.2f\n",
                units::to_seconds(knobs.compute), result.bandwidth_gib,
                units::to_seconds(
                    result.breakdown.at(prof::Phase::not_hidden_sync)));
    std::fflush(stdout);
  }
}

void ablation_coherent(const bench::Options& options) {
  std::printf("\n## A6: coherent mode (extent locking) overhead\n");
  std::printf("%-12s %12s\n", "e10_cache", "BW [GiB/s]");
  const Knobs knobs = default_knobs(options);
  static const char* cache_mode;
  for (const char* mode : {"enable", "coherent"}) {
    cache_mode = mode;
    const auto result = run_case(
        knobs, CacheCase::enabled, "/pfs/a6",
        [](WorkflowParams&, mpi::Info& hints) {
          hints.set("e10_cache", cache_mode);
        });
    std::printf("%-12s %12.2f\n", mode, result.bandwidth_gib);
    std::fflush(stdout);
  }
}

void ablation_workflow(const bench::Options& options) {
  std::printf("\n## A7: standard vs modified workflow (Fig. 3)\n");
  std::printf("%-18s %12s %18s\n", "workflow", "BW [GiB/s]",
              "not_hidden_sync [s]");
  const Knobs knobs = default_knobs(options);
  static bool defer;
  for (const bool deferred : {false, true}) {
    defer = deferred;
    const auto result = run_case(
        knobs, CacheCase::enabled, "/pfs/a7",
        [](WorkflowParams& workflow, mpi::Info&) {
          workflow.deferred_close = defer;
        });
    std::printf("%-18s %12.2f %18.2f\n",
                deferred ? "modified(defer)" : "standard",
                result.bandwidth_gib,
                units::to_seconds(
                    result.breakdown.at(prof::Phase::not_hidden_sync)));
    std::fflush(stdout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace e10::bench;
  Options options;
  parse_options(argc, argv, 1, kQuick | kFiles,
                "usage: bench_ablations " + flag_list(kQuick | kFiles),
                options);
  std::printf("## Ablations%s\n", options.quick ? " [QUICK scale]" : "");
  ablation_filedomains(options);
  ablation_flushpolicy(options);
  ablation_syncbuffer(options);
  ablation_aggratio(options);
  ablation_computedelay(options);
  ablation_coherent(options);
  ablation_workflow(options);
  return 0;
}

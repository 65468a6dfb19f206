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
// ablation pins the parameters the paper used except the one it varies;
// every case is one ExperimentSpec run through run_experiment.
#include <cstdio>

#include "bench/bench_common.h"
#include "obs/metrics.h"
#include "workloads/workload.h"

namespace {

using namespace e10;
using namespace e10::units;
using namespace e10::workloads;

/// The IOR case each ablation varies: the paper's parameters at the chosen
/// scale, cache enabled, every file's residual close counted.
ExperimentSpec base_spec(const bench::Options& options,
                         const std::string& base_path) {
  ExperimentSpec spec;
  spec.testbed = bench::testbed_for(options.quick);
  spec.aggregators = options.quick ? 16 : 64;
  spec.cb_buffer_size = 4 * MiB;
  spec.cache_case = CacheCase::enabled;
  spec.workflow.base_path = base_path;
  spec.workflow.num_files = options.files;
  spec.workflow.compute_delay = bench::compute_delay_for(options.quick);
  spec.workflow.include_last_phase = true;
  return spec;
}

ExperimentResult run(const ExperimentSpec& spec) {
  return run_experiment(spec, [](const TestbedParams&) {
    return std::make_unique<IorWorkload>();
  });
}

double not_hidden_sync_s(const ExperimentResult& result) {
  return units::to_seconds(result.breakdown.at(prof::Phase::not_hidden_sync));
}

void ablation_filedomains(const bench::Options& options) {
  std::printf("\n## A1: file-domain partitioning (even vs stripe-aligned)\n");
  std::printf("%-22s %12s %14s %14s\n", "driver", "BW [GiB/s]", "lock_waits",
              "lock_handoffs");
  ExperimentSpec spec = base_spec(options, "");
  // A non-power-of-two aggregator count makes the even (ufs) split land
  // mid-stripe, so neighbouring aggregators false-share stripes; the
  // beegfs driver aligns domains and avoids it (paper footnote 1).
  spec.aggregators = options.quick ? 6 : 24;
  spec.cache_case = CacheCase::disabled;
  spec.workflow.include_last_phase = false;
  for (const char* driver : {"ufs", "beegfs"}) {
    spec.workflow.base_path = std::string(driver) + ":/pfs/a1";
    const ExperimentResult result = run(spec);
    std::printf("%-22s %12.2f %14llu %14llu\n", driver, result.bandwidth_gib,
                static_cast<unsigned long long>(
                    bench::report_counter(result, obs::names::kLockWaits)),
                static_cast<unsigned long long>(
                    bench::report_counter(result, obs::names::kLockHandoffs)));
    std::fflush(stdout);
  }
}

void ablation_flushpolicy(const bench::Options& options) {
  std::printf("\n## A2: flush policy (immediate vs onclose)\n");
  std::printf("%-22s %12s %18s\n", "e10_cache_flush_flag", "BW [GiB/s]",
              "not_hidden_sync [s]");
  ExperimentSpec spec = base_spec(options, "/pfs/a2");
  for (const char* flag : {"flush_immediate", "flush_onclose"}) {
    spec.workflow.hints.set("e10_cache_flush_flag", flag);
    const ExperimentResult result = run(spec);
    std::printf("%-22s %12.2f %18.2f\n", flag, result.bandwidth_gib,
                not_hidden_sync_s(result));
    std::fflush(stdout);
  }
}

void ablation_syncbuffer(const bench::Options& options) {
  std::printf("\n## A3: ind_wr_buffer_size (sync staging granularity)\n");
  std::printf("%-22s %12s %18s\n", "ind_wr_buffer_size", "BW [GiB/s]",
              "not_hidden_sync [s]");
  ExperimentSpec spec = base_spec(options, "/pfs/a3");
  for (const Offset size : {64 * KiB, 256 * KiB, 512 * KiB, 2 * MiB, 8 * MiB}) {
    spec.workflow.hints.set("ind_wr_buffer_size", std::to_string(size));
    const ExperimentResult result = run(spec);
    std::printf("%-22s %12.2f %18.2f\n", format_bytes(size).c_str(),
                result.bandwidth_gib, not_hidden_sync_s(result));
    std::fflush(stdout);
  }
}

void ablation_aggratio(const bench::Options& options) {
  std::printf("\n## A4: aggregator / node ratio vs sync hiding\n");
  std::printf("%-12s %12s %18s %14s\n", "aggregators", "BW [GiB/s]",
              "not_hidden_sync [s]", "TBW [GiB/s]");
  ExperimentSpec spec = base_spec(options, "");
  const int max_aggs = static_cast<int>(spec.testbed.compute_nodes);
  for (int aggregators = max_aggs / 8; aggregators <= max_aggs;
       aggregators *= 2) {
    spec.aggregators = aggregators;
    spec.cache_case = CacheCase::enabled;
    spec.workflow.base_path = "/pfs/a4";
    const ExperimentResult enabled = run(spec);
    spec.cache_case = CacheCase::theoretical;
    spec.workflow.base_path = "/pfs/a4t";
    const ExperimentResult tbw = run(spec);
    std::printf("%-12d %12.2f %18.2f %14.2f\n", aggregators,
                enabled.bandwidth_gib, not_hidden_sync_s(enabled),
                tbw.bandwidth_gib);
    std::fflush(stdout);
  }
}

void ablation_computedelay(const bench::Options& options) {
  std::printf("\n## A5: compute delay sweep (Eq. 1 crossover)\n");
  std::printf("%-14s %12s %18s\n", "compute [s]", "BW [GiB/s]",
              "not_hidden_sync [s]");
  ExperimentSpec spec = base_spec(options, "/pfs/a5");
  // Few aggregators: Ts is large, so the crossover is visible.
  spec.aggregators = static_cast<int>(spec.testbed.compute_nodes) / 8;
  for (const double delay : {0.0, 7.5, 15.0, 30.0, 60.0}) {
    spec.workflow.compute_delay =
        units::seconds_f(options.quick ? delay / 8.0 : delay);
    const ExperimentResult result = run(spec);
    std::printf("%-14.1f %12.2f %18.2f\n",
                units::to_seconds(spec.workflow.compute_delay),
                result.bandwidth_gib, not_hidden_sync_s(result));
    std::fflush(stdout);
  }
}

void ablation_coherent(const bench::Options& options) {
  std::printf("\n## A6: coherent mode (extent locking) overhead\n");
  std::printf("%-12s %12s\n", "e10_cache", "BW [GiB/s]");
  ExperimentSpec spec = base_spec(options, "/pfs/a6");
  for (const char* mode : {"enable", "coherent"}) {
    spec.workflow.hints.set("e10_cache", mode);
    const ExperimentResult result = run(spec);
    std::printf("%-12s %12.2f\n", mode, result.bandwidth_gib);
    std::fflush(stdout);
  }
}

void ablation_workflow(const bench::Options& options) {
  std::printf("\n## A7: standard vs modified workflow (Fig. 3)\n");
  std::printf("%-18s %12s %18s\n", "workflow", "BW [GiB/s]",
              "not_hidden_sync [s]");
  ExperimentSpec spec = base_spec(options, "/pfs/a7");
  for (const bool deferred : {false, true}) {
    spec.workflow.deferred_close = deferred;
    const ExperimentResult result = run(spec);
    std::printf("%-18s %12.2f %18.2f\n",
                deferred ? "modified(defer)" : "standard",
                result.bandwidth_gib, not_hidden_sync_s(result));
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

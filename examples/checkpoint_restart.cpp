// Checkpoint/restart scenario: the paper's motivating workload (§III-C).
//
// An application alternates compute and checkpoint phases. With the cache
// disabled, every checkpoint stalls the application for the full PFS write.
// With the E10 cache and the modified workflow (deferred close), checkpoints
// return at local-SSD speed and the flush overlaps the next compute phase.
// The example runs both configurations on the full DEEP-ER-scale testbed
// and prints the timeline.
#include <cstdio>

#include "workloads/experiment.h"
#include "workloads/workload.h"

using namespace e10;
using namespace e10::units;

namespace {

void run_configuration(bool cached) {
  workloads::ExperimentSpec spec;
  spec.testbed = workloads::deep_er_testbed();
  // 128 ranks over 32 nodes: enough node-local SSDs (32 x 340 MiB/s ~
  // 10.6 GiB/s) to dwarf the PFS (4 x 560 MiB/s ~ 2.2 GiB/s), the paper's
  // aggregate-bandwidth scaling argument.
  spec.testbed.compute_nodes = 32;
  spec.testbed.ranks_per_node = 4;
  spec.aggregators = 32;
  spec.cb_buffer_size = 4 * MiB;
  spec.cache_case = cached ? workloads::CacheCase::enabled
                           : workloads::CacheCase::disabled;
  spec.workflow.base_path = "/pfs/checkpoint";
  spec.workflow.num_files = 4;          // 4 checkpoints
  spec.workflow.compute_delay = seconds(20);
  spec.workflow.include_last_phase = true;

  // Flash-like checkpoint content, 80 blocks per rank: ~7.4 GiB per
  // checkpoint, big enough that sustained media bandwidth, not the
  // servers' write-back RAM, decides the outcome. The harness defers each
  // close only when the cache is enabled (the modified workflow).
  const workloads::ExperimentResult experiment = workloads::run_experiment(
      spec, [](const workloads::TestbedParams&) {
        workloads::FlashIoWorkload::Params params;
        params.blocks_per_proc = 80;
        return std::make_unique<workloads::FlashIoWorkload>(params);
      });
  const workloads::WorkflowResult& result = experiment.workflow;

  std::printf("\n%s:\n", cached ? "E10 cache enabled (modified workflow)"
                                : "cache disabled (standard workflow)");
  for (std::size_t k = 0; k < result.phases.size(); ++k) {
    const auto& phase = result.phases[k];
    std::printf("  checkpoint %zu: write %s%s\n", k,
                format_time(phase.write_time).c_str(),
                phase.residual_close > 0
                    ? (", close waited " + format_time(phase.residual_close))
                          .c_str()
                    : "");
  }
  std::printf("  perceived bandwidth: %.2f GiB/s over %s\n",
              result.bandwidth_gib, format_bytes(result.total_bytes).c_str());
}

}  // namespace

int main() {
  std::printf("checkpoint/restart on the simulated DEEP-ER cluster "
              "(128 ranks, 32 nodes)\n");
  run_configuration(/*cached=*/false);
  run_configuration(/*cached=*/true);
  return 0;
}

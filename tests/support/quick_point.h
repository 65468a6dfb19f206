// The quick-scale points `bench_sweep collperf|flashio --quick` run: 64
// ranks on 16 nodes, 1/8 of the paper's data and a 3.75 s compute delay.
// Tests run them where an invariant must hold on the bench's own points.
#pragma once

#include <memory>

#include "common/units.h"
#include "workloads/experiment.h"
#include "workloads/workload.h"

namespace e10::workloads {

inline ExperimentSpec quick_collperf_spec(int aggregators, Offset cb,
                                          CacheCase cache_case, int files) {
  ExperimentSpec spec;
  spec.testbed.compute_nodes = 16;
  spec.testbed.ranks_per_node = 4;
  spec.aggregators = aggregators;
  spec.cb_buffer_size = cb;
  spec.cache_case = cache_case;
  spec.workflow.base_path = "/pfs/coll_perf";
  spec.workflow.num_files = files;
  spec.workflow.compute_delay = units::seconds_f(3.75);
  spec.workflow.include_last_phase = false;
  return spec;
}

inline ExperimentSpec quick_flashio_spec(int aggregators, Offset cb,
                                         CacheCase cache_case, int files) {
  ExperimentSpec spec =
      quick_collperf_spec(aggregators, cb, cache_case, files);
  spec.workflow.base_path = "/pfs/flash_io";
  return spec;
}

inline WorkloadFactory quick_collperf() {
  return [](const TestbedParams&) {
    return std::make_unique<CollPerfWorkload>(collperf_paper_params(64));
  };
}

}  // namespace e10::workloads

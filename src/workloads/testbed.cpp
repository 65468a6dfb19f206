#include "workloads/testbed.h"

namespace e10::workloads {

TestbedParams deep_er_testbed() {
  TestbedParams params;
  params.compute_nodes = 64;
  params.ranks_per_node = 8;
  params.pfs.data_servers = 4;
  params.pfs.target = storage::pfs_target_params();
  params.pfs.default_stripe_unit = 4 * units::MiB;  // paper: 4 MB stripes
  params.pfs.default_stripe_count = 4;              // paper: stripe count 4
  params.lfs.device = storage::local_ssd_params();
  params.lfs.capacity = 30 * units::GiB;  // the /scratch partition
  params.seed = 2016;
  return params;
}

TestbedParams small_testbed() {
  TestbedParams params;
  params.compute_nodes = 4;
  params.ranks_per_node = 2;
  params.pfs.data_servers = 2;
  params.pfs.target = storage::pfs_target_params();
  params.pfs.target.jitter_sigma = 0.0;  // deterministic service for asserts
  params.pfs.default_stripe_unit = 1 * units::MiB;
  params.pfs.default_stripe_count = 2;
  params.lfs.device = storage::local_ssd_params();
  params.lfs.device.jitter_sigma = 0.0;
  params.lfs.capacity = 256 * units::MiB;
  params.seed = 7;
  return params;
}

std::vector<std::size_t> Platform::server_nodes(const TestbedParams& params) {
  std::vector<std::size_t> nodes;
  nodes.reserve(params.pfs.data_servers);
  for (std::size_t i = 0; i < params.pfs.data_servers; ++i) {
    nodes.push_back(params.compute_nodes + i);
  }
  return nodes;
}

Platform::Platform(const TestbedParams& params)
    : fabric(params.compute_nodes + params.pfs.data_servers + 1,
             params.fabric),
      pfs(engine, fabric, server_nodes(params),
          /*metadata_node=*/params.compute_nodes + params.pfs.data_servers,
          params.pfs, params.seed),
      lfs(engine, params.compute_nodes, params.lfs, params.seed),
      locks(engine),
      tracer(engine,
             static_cast<int>(params.compute_nodes * params.ranks_per_node)),
      faults(engine),
      ctx(engine, pfs, lfs, locks, metrics, tracer, faults),
      world(engine, fabric,
            mpi::Topology(params.compute_nodes, params.ranks_per_node),
            params.mpi),
      params_(params) {
  pfs.set_metrics(&metrics);
  faults.set_observability(&tracer);
  pfs.set_fault_injector(&faults);
  for (std::size_t node = 0; node < params.compute_nodes; ++node) {
    lfs.at(node).set_fault_injector(&faults);
  }
}

}  // namespace e10::workloads

// The simulated testbed: one object wiring the full stack together.
//
// Default calibration reproduces the paper's DEEP-ER cluster (§IV-A):
//   - 64 compute nodes x 8 ranks = 512 MPI processes
//   - BeeGFS-like PFS: 4 data servers (HDD-RAID targets) + 1 metadata
//     server, ~2 GiB/s aggregate streaming ceiling, 4 MiB stripes x 4
//   - per-node 30 GiB ext4 scratch partition on a SATA SSD (~340 MiB/s
//     write), used by the E10 cache layer
//   - InfiniBand-QDR-like fabric
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "adio/io_context.h"
#include "cache/lock_table.h"
#include "fault/fault_injector.h"
#include "lfs/local_fs.h"
#include "mpi/world.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pfs/pfs.h"
#include "sim/engine.h"

namespace e10::workloads {

struct TestbedParams {
  std::size_t compute_nodes = 64;
  std::size_t ranks_per_node = 8;
  net::FabricParams fabric;
  pfs::PfsParams pfs;
  lfs::LfsParams lfs;
  mpi::MpiParams mpi;
  std::uint64_t seed = 2016;
};

/// The paper's testbed at full scale (512 ranks).
TestbedParams deep_er_testbed();

/// A small deterministic testbed for unit tests (8 ranks, no jitter).
TestbedParams small_testbed();

class Platform {
 public:
  explicit Platform(const TestbedParams& params = deep_er_testbed());

  /// Spawns `main` on every rank; call run() to execute.
  void launch(std::function<void(mpi::Comm)> rank_main) {
    world.launch(std::move(rank_main));
  }

  /// Runs the simulation to completion.
  void run() { engine.run(); }

  const TestbedParams& params() const { return params_; }
  int ranks() const { return world.size(); }

  sim::Engine engine;
  net::Fabric fabric;  // compute nodes, then data servers, then metadata
  pfs::Pfs pfs;
  lfs::LocalFsSet lfs;
  cache::LockTable locks;
  /// Shared by every layer. The tracer keeps every rank's phase totals and
  /// records trace events only once set_enabled(true).
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  /// Shared fault injector, wired into pfs, every node's lfs and the ctx;
  /// unarmed (one branch per hook) until faults.arm() installs a plan.
  fault::FaultInjector faults;
  adio::IoContext ctx;
  mpi::World world;

 private:
  static std::vector<std::size_t> server_nodes(const TestbedParams& params);

  TestbedParams params_;
};

}  // namespace e10::workloads

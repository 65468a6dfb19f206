// Shared services the ADIO layer runs against: the simulation engine, the
// global parallel file system, the per-node local file systems (cache tier),
// the coherency lock table, and the metrics, tracer and fault injector it
// reports to. A Platform (workloads/testbed.h) wires one up for the
// DEEP-ER-like cluster.
#pragma once

#include "cache/lock_table.h"
#include "lfs/local_fs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pfs/pfs.h"
#include "sim/engine.h"

namespace e10::fault {
class FaultInjector;
}

namespace e10::adio {

struct IoContext {
  IoContext(sim::Engine& engine_in, pfs::Pfs& pfs_in, lfs::LocalFsSet& lfs_in,
            cache::LockTable& locks_in, obs::MetricsRegistry& metrics_in,
            obs::Tracer& tracer_in, fault::FaultInjector& fault_in)
      : engine(engine_in),
        pfs(pfs_in),
        lfs(lfs_in),
        locks(locks_in),
        metrics(metrics_in),
        tracer(tracer_in),
        fault(fault_in) {}

  sim::Engine& engine;
  pfs::Pfs& pfs;
  lfs::LocalFsSet& lfs;
  cache::LockTable& locks;
  /// Counters, gauges and histograms of every layer.
  obs::MetricsRegistry& metrics;
  /// Per-rank phase totals of the collective I/O path (obs::Span with a
  /// prof::Phase) and, while enabled, its trace.
  obs::Tracer& tracer;
  /// Rank-crash queries on the cache path; unarmed = off.
  fault::FaultInjector& fault;
};

}  // namespace e10::adio

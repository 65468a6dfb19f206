// Executes a FaultPlan against the virtual clock.
//
// One injector is shared by every layer that can fail — Pfs (per-op
// transients, server outages), storage::Device (degradation windows),
// lfs::LocalFs (local NVM faults) and CacheFile (rank crashes). Each layer
// holds a FaultInjector* and asks it before doing work:
//
//   if (fault_ != nullptr) {
//     if (Status s = fault_->check(fault::FaultOp::pfs_write); !s) return s;
//   }
//
// When no plan is armed, check() is an inline armed_ test — one branch —
// so fault hooks cost nothing on a clean run (the acceptance bar: bench
// timing with faults disabled matches the seed). Injection draws come from
// per-op RNG streams derived from the plan seed, so two runs of the same
// scenario inject identical faults and the schedule stays deterministic.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/engine.h"

namespace e10::fault {

class FaultInjector {
 public:
  explicit FaultInjector(sim::Engine& engine) : engine_(engine) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Installs (and arms, when non-empty) a scenario. Resets RNG streams,
  /// crash bookkeeping and stats; call before the simulation starts.
  void arm(FaultPlan plan);

  bool armed() const { return armed_; }
  const FaultPlan& plan() const { return plan_; }

  /// Wires the "faults" trace track, created once a scenario (or forced
  /// failure) arms the injector.
  void set_observability(obs::Tracer* tracer);

  /// Publishes stats() into `registry` (fault.injected,
  /// .outage_rejections, .crashes and fault.<op>.injected), covering the
  /// injector since its last arm(). Only an armed injector publishes, so
  /// clean runs keep their metrics snapshot unchanged. Idempotent, meant
  /// for report time.
  void export_metrics(obs::MetricsRegistry& registry) const;

  /// Hot-path hook: returns ok, or the injected failure after charging the
  /// plan's error latency. Call sites guard on a possibly-null injector and
  /// this inlines to a single branch when nothing is armed.
  Status check(FaultOp op) {
    if (!armed_) return Status::ok();
    return draw(op);
  }

  /// Deterministic "next n ops of this kind fail" — the generalized form of
  /// the old LocalFs::inject_open_failures test hook. Forced failures fire
  /// before probabilistic rules and carry no error latency (preserving the
  /// legacy fail-immediately semantics existing tests rely on). `after`
  /// lets the first ops pass, placing the failure mid-sequence (e.g. a
  /// timeout in the middle of a multi-dispatch flush).
  void force_failures(FaultOp op, int count, Errc errc = Errc::io_error,
                      int after = 0);
  int forced_remaining(FaultOp op) const {
    return forced_[static_cast<std::size_t>(op)];
  }

  /// True while a hard outage window covers `now` for this server; counts
  /// the rejection. The caller reports Errc::unavailable upstream.
  bool server_down(int server, Time now);

  /// Combined degradation factor (>= 1.0) for this server at `now`;
  /// overlapping windows multiply. Devices scale media time by it.
  double slowdown(int server, Time now) const;

  /// One-shot crash query: true when an unfired CrashSpec for `rank` is due
  /// — its virtual time has passed, or it is a during-flush spec and
  /// `in_flush` is set. Firing marks the spec spent and counts the crash;
  /// the caller then runs CacheFile::simulate_crash().
  bool crash_due(int rank, Time now, bool in_flush);

  struct Stats {
    std::int64_t injected = 0;
    std::int64_t outage_rejections = 0;
    std::int64_t crashes = 0;
    std::array<std::int64_t, kFaultOpCount> injected_by_op{};
  };
  const Stats& stats() const { return stats_; }

 private:
  Status draw(FaultOp op);
  Status inject(FaultOp op, Errc errc, bool charge_latency);
  void ensure_track();
  void mark(const std::string& label);

  sim::Engine& engine_;
  FaultPlan plan_;
  bool armed_ = false;
  std::vector<Rng> rngs_;                    // one stream per FaultOp
  std::array<int, kFaultOpCount> forced_{};  // pending forced failures
  std::array<Errc, kFaultOpCount> forced_errc_{};
  std::array<int, kFaultOpCount> forced_after_{};  // ops to pass first
  std::vector<bool> crash_fired_;            // parallel to plan_.crashes
  Stats stats_;

  obs::Tracer* tracer_ = nullptr;
  int fault_track_ = -1;
};

}  // namespace e10::fault

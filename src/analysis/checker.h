// Simulator-native concurrency checker (docs/static_analysis.md).
//
// Attached to a sim::Engine, the checker consumes the events the
// synchronization primitives and the E10_SHARED_* instrumentation emit
// (sim/concurrency.h) and runs two analyses over the course of the run:
//
//  1. Eraser-style lockset race detection. Each registered shared variable
//     carries a candidate lockset C(v), refined to the intersection of the
//     locks held at every access once the variable leaves single-owner
//     (exclusive) state. A write to a multi-process variable whose C(v) is
//     empty means no lock consistently protects it — a data race in the
//     pthread implementation the simulator models, flagged with both access
//     sites, both process names and the virtual time. TSan-style tools
//     cannot see these: cooperative fibers share one OS thread.
//
//  2. Lock acquisition-order graph. Every blocking acquisition adds edges
//     held-lock -> acquired-lock; a cycle means two processes can acquire
//     the same locks in opposite orders — a *potential* deadlock reported
//     even when the schedule that actually deadlocks never ran. Monitor
//     locks (engine-atomic critical sections, see concurrency.h) are
//     excluded: they cannot block, so they cannot deadlock.
//
// Reports are deterministic: locks and variables are interned in
// first-sight order (the engine schedule is deterministic), names — never
// addresses — appear in output, and times are virtual. Two identical runs
// produce byte-identical to_json() output.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/json.h"
#include "sim/concurrency.h"
#include "sim/engine.h"

namespace e10::analysis {

/// One lockset violation: `site` raced with `prior_site`.
struct RaceFinding {
  std::string var;          // shared-variable name
  std::string site;         // file:line of the access that emptied C(v)
  std::string process;      // name of the accessing process
  bool write = false;       // the flagged access was a write
  std::string prior_site;   // the previous access to the variable
  std::string prior_process;
  Time at = 0;              // virtual time of the flagged access
};

/// One cycle in the lock acquisition-order graph.
struct CycleFinding {
  std::vector<std::string> locks;  // members, in first-acquisition order
  std::vector<std::string> edges;  // human-readable example edges
};

/// One observed acquisition-order edge: while holding `before`, some
/// process blocked acquiring `after`. Monitors never appear (they cannot
/// block). Exported for the declared-vs-dynamic lock-order cross-check
/// (analysis/lock_order.h).
struct OrderEdge {
  std::string before;
  std::string after;
  sim::LockKind before_kind = sim::LockKind::mutex;
  sim::LockKind after_kind = sim::LockKind::mutex;
  std::string example;  // "A -> B by <process> at t=..."
};

struct AnalysisSummary {
  std::vector<RaceFinding> races;
  std::vector<CycleFinding> cycles;
  std::size_t shared_vars = 0;
  std::size_t shared_accesses = 0;
  std::size_t locks_tracked = 0;       // distinct lock objects seen
  std::size_t lock_acquisitions = 0;
  std::size_t max_lock_depth = 0;      // blocking locks held at once
};

class ConcurrencyChecker final : public sim::ConcurrencyObserver {
 public:
  /// Attaches to the engine; detaches in the destructor.
  explicit ConcurrencyChecker(sim::Engine& engine);
  ~ConcurrencyChecker() override;
  ConcurrencyChecker(const ConcurrencyChecker&) = delete;
  ConcurrencyChecker& operator=(const ConcurrencyChecker&) = delete;

  /// Findings and counters accumulated so far (cycles are computed here).
  AnalysisSummary summary() const;

  /// Every observed acquisition-order edge, in deterministic (first-sight
  /// interning) order. The raw graph behind CycleFinding — consumed by the
  /// declared-order cross-check (analysis/lock_order.h) and the fuzz
  /// runner's concurrency oracle.
  std::vector<OrderEdge> order_edges() const;

  /// The run report's `analysis` section; see docs/static_analysis.md.
  obs::Json to_json() const;

  // ---- sim::ConcurrencyObserver ------------------------------------------
  void on_acquiring(sim::ProcessId pid, sim::LockId lock, sim::LockKind kind,
                    const std::string& name) override;
  void on_acquired(sim::ProcessId pid, sim::LockId lock, sim::LockKind kind,
                   const std::string& name) override;
  void on_released(sim::ProcessId pid, sim::LockId lock) override;
  void on_shared_access(sim::ProcessId pid, const void* key,
                        const std::string& name, bool is_write,
                        const char* site) override;
  void on_handoff(const void* key) override;
  void on_lock_created(sim::LockId lock) override;
  void on_shared_created(const void* key) override;
  std::string describe_process(sim::ProcessId pid) const override;

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  struct LockRec {
    std::string name;
    sim::LockKind kind = sim::LockKind::mutex;
  };

  struct ProcState {
    std::vector<std::size_t> held;  // acquisition-ordered stack of lock idx
    std::size_t waiting = kNone;    // lock idx currently being acquired
  };

  struct VarState {
    enum class S { virgin, exclusive, shared, shared_modified };
    std::string name;
    S state = S::virgin;
    sim::ProcessId owner = sim::kNoProcess;
    std::set<std::size_t> lockset;  // candidate lockset C(v)
    const char* last_site = "";
    std::string last_process;
  };

  struct Edge {
    std::string example;  // "A -> B by <process> at t=..."
  };

  std::size_t intern_lock(sim::LockId lock, sim::LockKind kind,
                          const std::string& name);
  ProcState& proc(sim::ProcessId pid) { return processes_[pid]; }
  void report_race(VarState& var, sim::ProcessId pid, bool is_write,
                   const char* site);

  sim::Engine& engine_;

  std::unordered_map<sim::LockId, std::size_t> lock_index_;
  std::vector<LockRec> locks_;
  std::unordered_map<sim::ProcessId, ProcState> processes_;
  std::unordered_map<const void*, std::size_t> var_index_;
  std::vector<VarState> vars_;
  /// Acquisition-order edges between blocking locks, keyed by dense
  /// indices (deterministic iteration).
  std::map<std::pair<std::size_t, std::size_t>, Edge> edges_;

  std::vector<RaceFinding> races_;
  std::set<std::pair<std::size_t, const char*>> reported_;  // (var, site)
  std::size_t shared_accesses_ = 0;
  std::size_t lock_acquisitions_ = 0;
  std::size_t max_lock_depth_ = 0;
};

}  // namespace e10::analysis

// Runtime concurrency-analysis hooks for the DES engine.
//
// The primitives in sync.h, the cache layer's extent LockTable and any
// registered shared state report their events through a ConcurrencyObserver
// attached to the Engine. With no observer attached every hook is a single
// pointer test — the checker is strictly opt-in. The production observer is
// analysis::ConcurrencyChecker (Eraser-style lockset race detection plus a
// lock acquisition-order graph); see docs/static_analysis.md.
//
// Three lock kinds are reported:
//  - mutex:   sim::SimMutex — a blocking lock between simulated processes.
//  - extent:  a (path, extent) lock in cache::LockTable (ADIOI_WRITE_LOCK).
//  - monitor: a synthetic, non-blocking claim over an engine-atomic critical
//    section (code that cannot yield between entry and exit, or that only
//    blocks at well-defined predicate re-check points). Monitors model the
//    pthread mutexes the real (threaded) implementation would need around
//    structures the simulator makes atomic by cooperative scheduling — the
//    sync thread's inbox, the LockTable's own tables, the metrics registry.
//    Monitors participate in locksets but are excluded from the
//    acquisition-order graph: they cannot block, so they cannot deadlock.
#pragma once

#include <cstdint>
#include <string>

#include "sim/engine.h"

namespace e10::sim {

/// Identity of a lock instance: the object address for mutexes/monitors, a
/// deterministic hash of (path, extent) for extent locks. Stable within a
/// run; reports must use interned names, never raw ids.
using LockId = std::uint64_t;

enum class LockKind { mutex, extent, monitor };

inline const char* to_string(LockKind kind) {
  switch (kind) {
    case LockKind::mutex: return "mutex";
    case LockKind::extent: return "extent";
    case LockKind::monitor: return "monitor";
  }
  return "?";
}

/// Event sink for the concurrency checker. Hooks fire only from inside
/// simulated processes; implementations may query the engine for the
/// current virtual time.
class ConcurrencyObserver {
 public:
  virtual ~ConcurrencyObserver() = default;

  /// A process is about to acquire `lock` and may block. Order-graph edges
  /// are recorded here so that cycles are found even on runs where the
  /// deadlock never actually fires.
  virtual void on_acquiring(ProcessId pid, LockId lock, LockKind kind,
                            const std::string& name) = 0;

  /// The acquisition succeeded; `lock` is now in `pid`'s lockset.
  virtual void on_acquired(ProcessId pid, LockId lock, LockKind kind,
                           const std::string& name) = 0;

  /// `pid` released `lock`.
  virtual void on_released(ProcessId pid, LockId lock) = 0;

  /// `pid` touched registered shared state. `key` identifies the state
  /// (shared across every instrumentation site of the same structure);
  /// `site` is a static "file:line" literal.
  virtual void on_shared_access(ProcessId pid, const void* key,
                                const std::string& name, bool is_write,
                                const char* site) = 0;

  /// Ownership handoff: the state identified by `key` was transferred
  /// through a synchronising operation (join, grequest completion), so the
  /// next accessor becomes its new exclusive owner.
  virtual void on_handoff(const void* key) = 0;

  /// Registration: a lock (`on_lock_created`) or a piece of shared state
  /// (`on_shared_created`) was constructed. Later events under that id are
  /// a new object's, even where a destroyed object used the same address.
  virtual void on_lock_created(LockId lock) = 0;
  virtual void on_shared_created(const void* key) = 0;

  /// One-line description of the locks `pid` holds and the lock it is
  /// waiting for, for enriched DeadlockError reports. Empty when idle.
  virtual std::string describe_process(ProcessId pid) const = 0;
};

/// A piece of registered shared state. Instrument accesses with the
/// E10_SHARED_READ / E10_SHARED_WRITE macros (or record() directly); every
/// call is a no-op branch while no observer is attached.
class SharedVar {
 public:
  SharedVar(Engine& engine, std::string name)
      : engine_(engine), name_(std::move(name)) {
    // A fresh variable can reuse a freed address (e.g. successive CacheFile
    // objects across files): register it so the checker counts a new
    // variable rather than carrying a dead object's state into this one.
    if (ConcurrencyObserver* observer = engine_.concurrency_observer()) {
      observer->on_shared_created(this);
    }
  }
  SharedVar(const SharedVar&) = delete;
  SharedVar& operator=(const SharedVar&) = delete;

  void record(bool is_write, const char* site) const {
    ConcurrencyObserver* observer = engine_.concurrency_observer();
    if (observer != nullptr && engine_.in_process()) {
      observer->on_shared_access(engine_.current(), this, name_, is_write,
                                 site);
    }
  }

  /// Declares a synchronised ownership transfer (see
  /// ConcurrencyObserver::on_handoff).
  void handoff() const {
    if (ConcurrencyObserver* observer = engine_.concurrency_observer()) {
      observer->on_handoff(this);
    }
  }

  const std::string& name() const { return name_; }

 private:
  Engine& engine_;
  std::string name_;
};

/// Registers the lock identified by `object`'s address (a mutex, or the
/// structure a monitor guards) with the attached observer, if any. Call it
/// where the object is constructed.
inline void lock_created(Engine& engine, const void* object) {
  if (ConcurrencyObserver* observer = engine.concurrency_observer()) {
    observer->on_lock_created(reinterpret_cast<LockId>(object));
  }
}

/// RAII claim of a synthetic monitor lock over an engine-atomic critical
/// section (kind == LockKind::monitor; see the header comment). `object`
/// identifies the monitor — use the address of the guarded structure so
/// every entry point of the same monitor claims the same lock. The name is
/// consumed (interned) during construction; a temporary is fine.
class MonitorGuard {
 public:
  MonitorGuard(Engine& engine, const void* object, const std::string& name)
      : engine_(engine),
        id_(reinterpret_cast<LockId>(object)),
        observer_(engine.concurrency_observer()) {
    if (observer_ != nullptr && engine_.in_process()) {
      const ProcessId pid = engine_.current();
      observer_->on_acquiring(pid, id_, LockKind::monitor, name);
      observer_->on_acquired(pid, id_, LockKind::monitor, name);
      active_ = true;
    }
  }
  ~MonitorGuard() {
    if (active_) observer_->on_released(engine_.current(), id_);
  }
  MonitorGuard(const MonitorGuard&) = delete;
  MonitorGuard& operator=(const MonitorGuard&) = delete;

 private:
  Engine& engine_;
  LockId id_;
  ConcurrencyObserver* observer_;
  bool active_ = false;
};

/// Reports an access to shared state that has no SharedVar object of its
/// own (e.g. a structure owned by a layer below sim, like the metrics
/// registry). `key` must be the same at every site touching that state.
inline void shared_access(Engine& engine, const void* key, const char* name,
                          bool is_write, const char* site) {
  ConcurrencyObserver* observer = engine.concurrency_observer();
  if (observer != nullptr && engine.in_process()) {
    observer->on_shared_access(engine.current(), key, name, is_write, site);
  }
}

#define E10_CONCURRENCY_STR2_(x) #x
#define E10_CONCURRENCY_STR_(x) E10_CONCURRENCY_STR2_(x)
/// Static "file:line" literal naming an instrumentation site.
#define E10_SITE __FILE__ ":" E10_CONCURRENCY_STR_(__LINE__)

/// Records a read/write of a sim::SharedVar at the current site.
#define E10_SHARED_READ(var) (var).record(false, E10_SITE)
#define E10_SHARED_WRITE(var) (var).record(true, E10_SITE)

}  // namespace e10::sim

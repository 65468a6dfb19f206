// Blocking primitives for simulated processes: mutex and one-shot event,
// both in virtual time.
//
// SimMutex carries Clang thread-safety annotations (E10_CAPABILITY et al.,
// common/thread_safety.h) so state guarded by a simulated mutex can be
// declared E10_GUARDED_BY and checked at compile time, and reports its
// acquisitions to the engine's ConcurrencyObserver (sim/concurrency.h) so
// the runtime lockset checker sees it too.
#pragma once

#include <string>
#include <vector>

#include "common/thread_safety.h"
#include "common/units.h"
#include "sim/engine.h"
#include "sim/fifo.h"

namespace e10::sim {

/// Mutual exclusion between simulated processes; FIFO hand-off. The
/// optional name labels the mutex in race/deadlock reports.
class E10_CAPABILITY("mutex") SimMutex {
 public:
  explicit SimMutex(Engine& engine, std::string name = "mutex");
  SimMutex(const SimMutex&) = delete;
  SimMutex& operator=(const SimMutex&) = delete;

  void lock() E10_ACQUIRE();
  void unlock() E10_RELEASE();
  bool locked() const { return locked_; }
  const std::string& name() const { return name_; }

 private:
  Engine& engine_;
  std::string name_;
  bool locked_ = false;
  Fifo<ProcessId> waiters_;
};

/// RAII lock for SimMutex.
class E10_SCOPED_CAPABILITY SimLock {
 public:
  explicit SimLock(SimMutex& mutex) E10_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~SimLock() E10_RELEASE() { mutex_.unlock(); }
  SimLock(const SimLock&) = delete;
  SimLock& operator=(const SimLock&) = delete;

 private:
  SimMutex& mutex_;
};

/// One-shot completion event carrying a completion time. A completer may set
/// the event *in the future* (set_at), which is how asynchronous operations
/// (message delivery, device completion, generalized requests) are modeled:
/// the completer's own clock does not advance, but any waiter's clock is
/// advanced to the completion time.
class SimEvent {
 public:
  explicit SimEvent(Engine& engine) : engine_(engine) {}
  SimEvent(const SimEvent&) = delete;
  SimEvent& operator=(const SimEvent&) = delete;

  /// Completes the event now.
  void set();

  /// Completes the event at time `at` (>= the setter's current time).
  void set_at(Time at);

  /// Blocks until the event completes; advances the waiter to the
  /// completion time.
  void wait();

  bool is_set() const { return set_; }
  Engine& engine() const { return engine_; }

 private:
  Engine& engine_;
  bool set_ = false;
  Time at_ = 0;
  std::vector<ProcessId> waiters_;
};

}  // namespace e10::sim

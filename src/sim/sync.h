// Blocking primitives for simulated processes: mutex, condition variable,
// semaphore, one-shot event, and cyclic barrier — all in virtual time.
//
// SimMutex carries Clang thread-safety annotations (E10_CAPABILITY et al.,
// common/thread_safety.h) so state guarded by a simulated mutex can be
// declared E10_GUARDED_BY and checked at compile time, and reports its
// acquisitions to the engine's ConcurrencyObserver (sim/concurrency.h) so
// the runtime lockset checker sees it too.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/thread_safety.h"
#include "common/units.h"
#include "sim/engine.h"

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
  friend class SimCondVar;
  Engine& engine_;
  std::string name_;
  bool locked_ = false;
  std::deque<ProcessId> waiters_;
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

/// Condition variable over SimMutex. Wakes are FIFO; as with std::condition_
/// variable, users must re-check their predicate in a loop.
class SimCondVar {
 public:
  explicit SimCondVar(Engine& engine) : engine_(engine) {}
  SimCondVar(const SimCondVar&) = delete;
  SimCondVar& operator=(const SimCondVar&) = delete;

  void wait(SimMutex& mutex) E10_REQUIRES(mutex);
  void notify_one();
  void notify_all();

 private:
  Engine& engine_;
  std::deque<ProcessId> waiters_;
};

/// Counting semaphore; FIFO grants.
class SimSemaphore {
 public:
  SimSemaphore(Engine& engine, std::int64_t initial)
      : engine_(engine), count_(initial) {}
  SimSemaphore(const SimSemaphore&) = delete;
  SimSemaphore& operator=(const SimSemaphore&) = delete;

  void acquire();
  void release(std::int64_t n = 1);
  std::int64_t available() const { return count_; }

 private:
  Engine& engine_;
  std::int64_t count_;
  std::deque<ProcessId> waiters_;
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
  /// Completion time; only meaningful once is_set().
  Time completion_time() const { return at_; }
  Engine& engine() const { return engine_; }

 private:
  Engine& engine_;
  bool set_ = false;
  Time at_ = 0;
  std::vector<ProcessId> waiters_;
};

/// Cyclic barrier for a fixed participant count. All participants leave at
/// the maximum arrival time — precisely the "bottlenecked by the slowest
/// process" semantics of MPI synchronizing collectives.
class SimBarrier {
 public:
  SimBarrier(Engine& engine, std::size_t participants)
      : engine_(engine), participants_(participants) {}
  SimBarrier(const SimBarrier&) = delete;
  SimBarrier& operator=(const SimBarrier&) = delete;

  /// Blocks until `participants` processes have arrived; returns with the
  /// caller's clock at the max arrival time. Reusable (cyclic).
  void arrive_and_wait();

  std::size_t participants() const { return participants_; }

 private:
  Engine& engine_;
  std::size_t participants_;
  std::vector<ProcessId> arrived_;
  Time max_arrival_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace e10::sim

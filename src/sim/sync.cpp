#include "sim/sync.h"

#include <stdexcept>

#include "sim/concurrency.h"

namespace e10::sim {

SimMutex::SimMutex(Engine& engine, std::string name)
    : engine_(engine), name_(std::move(name)) {
  lock_created(engine_, this);
}

void SimMutex::lock() {
  ConcurrencyObserver* observer =
      engine_.in_process() ? engine_.concurrency_observer() : nullptr;
  if (observer != nullptr) {
    observer->on_acquiring(engine_.current(),
                           reinterpret_cast<LockId>(this), LockKind::mutex,
                           name_);
  }
  if (!locked_) {
    locked_ = true;
  } else {
    waiters_.push_back(engine_.current());
    engine_.block("SimMutex::lock");
    // Woken by unlock(): the mutex was handed to us and is still locked.
  }
  if (observer != nullptr) {
    observer->on_acquired(engine_.current(), reinterpret_cast<LockId>(this),
                          LockKind::mutex, name_);
  }
}

void SimMutex::unlock() {
  if (!locked_) throw std::logic_error("SimMutex::unlock while unlocked");
  if (ConcurrencyObserver* observer = engine_.concurrency_observer();
      observer != nullptr && engine_.in_process()) {
    observer->on_released(engine_.current(), reinterpret_cast<LockId>(this));
  }
  // Hand the mutex directly to the next waiter; it stays locked. A waiter
  // cancelled while parked in lock() leaves a stale queue entry (its fiber
  // unwound out of block()); skip those — waking a dead process during
  // error unwinding would terminate the program.
  while (!waiters_.empty()) {
    const ProcessId next = waiters_.front();
    waiters_.pop_front();
    if (engine_.is_blocked(next)) {
      engine_.make_ready(next, engine_.now());
      return;
    }
  }
  locked_ = false;
}

void SimEvent::set() { set_at(engine_.now()); }

void SimEvent::set_at(Time at) {
  if (set_) throw std::logic_error("SimEvent::set on already-set event");
  set_ = true;
  at_ = at;
  for (const ProcessId w : waiters_) engine_.make_ready(w, at_);
  waiters_.clear();
}

void SimEvent::wait() {
  if (set_) {
    engine_.advance_to(at_);
    return;
  }
  waiters_.push_back(engine_.current());
  engine_.block("SimEvent::wait");
}

}  // namespace e10::sim

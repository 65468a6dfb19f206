// Timestamped message queue between simulated processes.
//
// send() deposits a message that becomes *available* at a given virtual
// time (e.g. network arrival time) without blocking the sender — the eager
// message protocol. recv() blocks until a message is available and advances
// the receiver's clock to max(now, available_at).
#pragma once

#include <optional>
#include <utility>

#include "common/units.h"
#include "sim/engine.h"
#include "sim/fifo.h"

namespace e10::sim {

template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Engine& engine) : engine_(engine) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Deposits a message available at time `available_at` (defaults to the
  /// sender's current time). Never blocks.
  void send(T message, std::optional<Time> available_at = std::nullopt) {
    queue_.push_back(Entry{std::move(message),
                           available_at.value_or(engine_.now())});
    if (!waiters_.empty()) {
      const ProcessId next = waiters_.front();
      waiters_.pop_front();
      engine_.make_ready(next, queue_.back().available_at);
    }
  }

  /// Blocks until a message is available; returns it in FIFO deposit order.
  T recv() {
    while (queue_.empty()) {
      waiters_.push_back(engine_.current());
      engine_.block("Mailbox::recv");
    }
    Entry entry = std::move(queue_.front());
    queue_.pop_front();
    engine_.advance_to(entry.available_at);
    return std::move(entry.message);
  }

  /// Non-blocking receive: a message only if one has already been deposited
  /// (the caller's clock still advances to its availability time).
  std::optional<T> try_recv() {
    if (queue_.empty()) return std::nullopt;
    Entry entry = std::move(queue_.front());
    queue_.pop_front();
    engine_.advance_to(entry.available_at);
    return std::move(entry.message);
  }

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

 private:
  struct Entry {
    T message;
    Time available_at;
  };
  Engine& engine_;
  Fifo<Entry> queue_;
  Fifo<ProcessId> waiters_;
};

}  // namespace e10::sim

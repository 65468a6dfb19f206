// First-in first-out queue over one vector: push at the back, pop at the
// front.
//
// The simulator's wait lists, mailboxes and in-flight windows only ever
// push at the back and pop at the front, and most of them stay empty for
// their whole life: a sync thread per rank and open file owns four such
// queues, and most sync threads never receive a request. libstdc++'s
// std::deque allocates its map and first node (~560 bytes) when it is
// built; a Fifo allocates nothing before its first push.
//
// A popped element is reset to T{} at once, so a queue never keeps what it
// no longer holds alive (a payload, a shared_ptr). The storage compacts
// when the head passes half of it, which moves fewer elements than were
// popped since the last compaction: amortized O(1) per pop. Capacity is
// kept, so a queue that refills does not allocate again.
//
// Unlike std::deque, a push may move every element: no caller may hold a
// reference or iterator into a Fifo across a push_back, nor across a
// pop_front (which may compact).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace e10::sim {

template <typename T>
class Fifo {
 public:
  using iterator = typename std::vector<T>::iterator;

  void push_back(T value) { items_.push_back(std::move(value)); }

  /// Oldest element; undefined when empty.
  T& front() { return items_[head_]; }
  /// Newest element; undefined when empty.
  T& back() { return items_.back(); }

  /// Drops the oldest element (undefined when empty), releasing what it
  /// held.
  void pop_front() {
    items_[head_] = T{};
    ++head_;
    if (2 * head_ > items_.size()) {
      items_.erase(items_.begin(), items_.begin() + offset());
      head_ = 0;
    }
  }

  [[nodiscard]] bool empty() const { return head_ == items_.size(); }
  [[nodiscard]] std::size_t size() const { return items_.size() - head_; }
  void clear() {
    items_.clear();
    head_ = 0;
  }

  /// Oldest to newest.
  iterator begin() { return items_.begin() + offset(); }
  iterator end() { return items_.end(); }

 private:
  std::ptrdiff_t offset() const { return static_cast<std::ptrdiff_t>(head_); }

  std::vector<T> items_;
  std::size_t head_ = 0;  // index of the oldest element
};

}  // namespace e10::sim

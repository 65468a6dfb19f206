// Non-blocking resource timelines.
//
// A ResourceTimeline models a serially-reusable resource (a NIC, an SSD, a
// disk array) as a "next free" cursor: a reservation at time `now` for
// `service` duration completes at max(next_free, now) + service. Because the
// engine always runs the lowest-virtual-time process first, reservations are
// issued in nondecreasing virtual time and the FIFO timeline is causally
// consistent without any blocking.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "common/units.h"

namespace e10::sim {

/// A reserved [start, end) slot on a resource timeline.
struct Interval {
  Time start;
  Time end;
};

class ResourceTimeline {
 public:
  /// Reserves `service` time starting no earlier than `now`; returns the
  /// granted slot (start = when the resource became available).
  Interval reserve_interval(Time now, Time service) {
    if (service < 0) throw std::logic_error("negative service time");
    const Time start = std::max(next_free_, now);
    next_free_ = start + service;
    ++reservations_;
    busy_ += service;
    return Interval{start, next_free_};
  }

  /// Reserves `service` time starting no earlier than `now`; returns the
  /// completion time.
  Time reserve(Time now, Time service) {
    return reserve_interval(now, service).end;
  }

  Time next_free() const { return next_free_; }
  std::uint64_t reservations() const { return reservations_; }
  /// Total busy (service) time accumulated; utilization diagnostics.
  Time busy_time() const { return busy_; }

 private:
  Time next_free_ = 0;
  std::uint64_t reservations_ = 0;
  Time busy_ = 0;
};

}  // namespace e10::sim

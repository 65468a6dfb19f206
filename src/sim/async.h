// Accounting for asynchronous, completion-time-based operations.
//
// Layers that model asynchronous I/O compute a completion time from their
// resource timelines and return it instead of advancing the caller's clock
// (LocalFs::write_async, Pfs::write_async); the issuer joins later through a
// generalized request. OverlapAccumulator does the virtual-time arithmetic
// at those join points: how much of each [issued, done) service interval
// elapsed while the issuing process was doing other work (hidden), how much
// the issuer had to stall at the join, and the resulting overlap ratio —
// the write-pipeline analogue of the sync thread's flush-overlap ratio.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/units.h"

namespace e10::sim {

/// Outcome of joining one async operation.
struct JoinOutcome {
  Time hidden = 0;  // service time that elapsed before the join
  Time stall = 0;   // service time the joiner had to wait out
};

/// Splits the service interval [issued, done) of an operation joined at
/// `join_at` into a hidden part (already elapsed at join time) and a stall
/// part (still ahead of the joiner).
inline JoinOutcome split_join(Time issued, Time done, Time join_at) {
  if (done < issued) done = issued;
  if (join_at < issued) join_at = issued;
  JoinOutcome outcome;
  outcome.hidden = std::min(join_at, done) - issued;
  outcome.stall = done - issued - outcome.hidden;
  return outcome;
}

class OverlapAccumulator {
 public:
  /// Records the join of an operation issued at `issued` with completion
  /// time `done`, joined at `join_at` (issued <= join_at); see split_join.
  JoinOutcome on_join(Time issued, Time done, Time join_at) {
    const JoinOutcome outcome = split_join(issued, done, join_at);
    ++joins_;
    if (outcome.stall > 0) ++stalls_;
    service_ += outcome.hidden + outcome.stall;
    hidden_ += outcome.hidden;
    stall_ += outcome.stall;
    return outcome;
  }

  std::uint64_t joins() const { return joins_; }
  /// Joins that had to wait for an incomplete operation.
  std::uint64_t stalls() const { return stalls_; }
  /// Total service time across joined operations.
  Time service_time() const { return service_; }
  /// Service time that overlapped the issuer's other work.
  Time hidden_time() const { return hidden_; }
  /// Service time the issuer waited out at join points.
  Time stall_time() const { return stall_; }

  /// hidden / service in [0, 1]; 0 when nothing was joined.
  double overlap_ratio() const {
    if (service_ == 0) return 0.0;
    return static_cast<double>(hidden_) / static_cast<double>(service_);
  }

 private:
  std::uint64_t joins_ = 0;
  std::uint64_t stalls_ = 0;
  Time service_ = 0;
  Time hidden_ = 0;
  Time stall_ = 0;
};

}  // namespace e10::sim

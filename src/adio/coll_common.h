// Helpers the two-phase collective write and read paths share
// (write_coll.cpp, read_coll.cpp). Internal to adio.
#pragma once

#include <algorithm>
#include <limits>

#include "common/status.h"
#include "common/units.h"
#include "mpi/comm.h"

namespace e10::adio {

/// Start/end sentinel of a rank (or node) with no data in the access.
inline constexpr Offset kNoOffset = std::numeric_limits<Offset>::max();

/// Collective error agreement (same rule as ROMIO's error exchange): every
/// rank returns the worst error code any rank saw; the rank that saw it
/// keeps its own message.
inline Status agree_status(const mpi::Comm& comm, const Status& mine) {
  const int code = static_cast<int>(mine.code());
  const int worst =
      comm.allreduce(code, [](int a, int b) { return std::max(a, b); });
  if (worst == 0) return Status::ok();
  if (code == worst) return mine;
  return Status::error(static_cast<Errc>(worst), "error on a peer rank");
}

}  // namespace e10::adio

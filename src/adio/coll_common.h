// Helpers the collective paths share (write_coll.cpp, read_coll.cpp,
// open_close.cpp). Internal to adio.
#pragma once

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "adio/io_context.h"
#include "common/status.h"
#include "common/units.h"
#include "mpi/comm.h"

namespace e10::adio {

/// Start/end sentinel of a rank (or node) with no data in the access.
inline constexpr Offset kNoOffset = std::numeric_limits<Offset>::max();

/// What step 1's offset allgather tells every rank about one collective
/// access, folded once per operation.
struct GlobalAccess {
  /// Some rank's region starts before an earlier rank's region ends (ROMIO:
  /// collective buffering pays off only when rank regions interleave;
  /// otherwise independent access is better).
  bool interleaved = false;
  /// [start, end) over every rank with data; start is kNoOffset when no rank
  /// has any.
  Offset start = kNoOffset;
  Offset end = -1;
  /// Per node-leader index (Comm::leader_index): the [min start, max end)
  /// hull of that node's rank regions; start is kNoOffset when the node has
  /// no data.
  std::vector<std::pair<Offset, Offset>> node_hulls;
};

/// Step 1 of both two-phase paths, timed as the offset-exchange phase:
/// allgathers each rank's [start, end) (kNoOffset for no data) and folds
/// the rank-ordered list into one GlobalAccess that every rank shares.
std::shared_ptr<const GlobalAccess> exchange_offsets(IoContext& ctx,
                                                     const mpi::Comm& comm,
                                                     Offset start, Offset end);

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

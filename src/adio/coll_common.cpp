#include "adio/coll_common.h"

#include <algorithm>

namespace e10::adio {

std::shared_ptr<const GlobalAccess> exchange_offsets(IoContext& ctx,
                                                     const mpi::Comm& comm,
                                                     Offset start, Offset end) {
  obs::Span phase(ctx.tracer, comm.rank(), prof::Phase::offset_exchange);
  return comm.allgather_fold(
      std::make_pair(start, end),
      [&comm](const std::vector<std::pair<Offset, Offset>>& regions) {
        GlobalAccess access;
        access.node_hulls.assign(comm.node_leaders().size(), {kNoOffset, -1});
        for (std::size_t r = 0; r < regions.size(); ++r) {
          const auto& [rstart, rend] = regions[r];
          if (rstart == kNoOffset) continue;
          if (access.end >= 0 && rstart < access.end) {
            access.interleaved = true;
          }
          access.start = std::min(access.start, rstart);
          access.end = std::max(access.end, rend);
          auto& hull =
              access.node_hulls[comm.leader_index(static_cast<int>(r))];
          hull.first = std::min(hull.first, rstart);
          hull.second = std::max(hull.second, rend);
        }
        return access;
      },
      Offset{2} * sizeof(Offset));
}

}  // namespace e10::adio

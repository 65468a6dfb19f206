// Two-phase collective read (ADIOI_GEN_ReadStridedColl): aggregators read
// their file-domain windows from the global file and scatter the pieces to
// the requesting ranks. Reads never touch the cache tier (§III-B); coherent
// mode blocks on in-transit extents inside read_contig.
#include <algorithm>
#include <optional>

#include "adio/adio_file.h"
#include "adio/coll_common.h"
#include "adio/pipeline.h"
#include "adio/round_plan.h"

namespace e10::adio {

namespace {

/// A rank's request for part of an aggregator's round window.
struct ReadChunk {
  int requester = 0;
  Extent extent;
};

}  // namespace

Result<std::vector<DataView>> read_strided_coll(
    AdioFile& fd, const std::vector<Extent>& wanted) {
  IoContext& ctx = *fd.ctx;
  const mpi::Comm& comm = fd.comm;
  const int p = comm.size();
  const int me = comm.rank();

  std::vector<Extent> sorted = wanted;
  std::erase_if(sorted, [](const Extent& e) { return e.empty(); });
  std::sort(sorted.begin(), sorted.end(),
            [](const Extent& a, const Extent& b) {
              return a.offset < b.offset;
            });

  Offset my_start = kNoOffset, my_end = kNoOffset;
  if (!sorted.empty()) {
    my_start = sorted.front().offset;
    my_end = sorted.back().end();
  }
  const std::shared_ptr<const GlobalAccess> access =
      exchange_offsets(ctx, comm, my_start, my_end);

  if (fd.hints.romio_cb_read == Toggle::disable ||
      (fd.hints.romio_cb_read == Toggle::automatic && !access->interleaved) ||
      access->start == kNoOffset) {
    auto result = read_strided(fd, wanted);
    const Status agreed = agree_status(comm, result.status());
    if (!agreed.is_ok()) return agreed;
    return result;
  }

  std::optional<Offset> align;
  if (fd.driver == Driver::beegfs && fd.stripe_unit > 0) {
    align = fd.stripe_unit;
  }
  // The read path stays single-level even under e10_two_level_flag: reads
  // already fan out aggregator → rank (one message per reader), so an
  // intra-node gather stage has no p-to-A flow to collapse. The flat
  // constructor keeps the read plan independent of the hint.
  RoundPlanner planner(Extent{access->start, access->end - access->start},
                       fd.aggregators.size(), fd.hints.cb_buffer_size, align);
  const Offset ntimes = planner.rounds();

  // Which (aggregator, round) serves each part of my request list. Sorted
  // requests keep the planner's domain cursor monotonic.
  std::vector<RoundPlan<Extent>> plan(static_cast<std::size_t>(ntimes));
  for (const Extent& want : sorted) {
    planner.split(want, [&](Offset round, std::size_t agg_index,
                            const Extent& sub) {
      plan_append(plan, round, agg_index, sub);
    });
  }

  Status my_status = Status::ok();
  ByteStore assembled;  // pieces land here, keyed by file offset

  // Round-persistent exchange buffers (entries touched by a round are
  // cleared sparsely afterwards, so the steady state allocates nothing).
  std::vector<std::vector<Extent>> requests_by_rank(
      static_cast<std::size_t>(p));
  std::vector<mpi::Request> recv_requests;
  std::vector<mpi::Request> send_requests;

  for (Offset round = 0; round < ntimes; ++round) {
    auto& round_plan = plan[static_cast<std::size_t>(round)];

    // Dissemination: every rank tells every aggregator which extents it
    // wants this round (the read-side analogue of the alltoall).
    for (const auto& [agg_index, extents] : round_plan) {
      requests_by_rank[static_cast<std::size_t>(
          fd.aggregators[agg_index])] = extents;
    }
    std::vector<std::vector<Extent>> incoming;
    {
      obs::Span phase(ctx.tracer, me, prof::Phase::shuffle_all2all);
      incoming = comm.alltoall(requests_by_rank, 2 * sizeof(Offset) * 4);
    }
    for (const auto& [agg_index, extents] : round_plan) {
      requests_by_rank[static_cast<std::size_t>(fd.aggregators[agg_index])]
          .clear();
    }

    // Post receives for the data I asked for.
    recv_requests.clear();
    for (const auto& [agg_index, extents] : round_plan) {
      recv_requests.push_back(
          comm.irecv(fd.aggregators[agg_index], static_cast<int>(round)));
    }

    // Aggregator: read the covering window once, slice per requester.
    send_requests.clear();
    if (fd.is_aggregator()) {
      std::vector<ReadChunk> chunks;
      Offset lo = kNoOffset, hi = -1;
      for (int src = 0; src < p; ++src) {
        for (const Extent& e : incoming[static_cast<std::size_t>(src)]) {
          chunks.push_back(ReadChunk{src, e});
          lo = std::min(lo, e.offset);
          hi = std::max(hi, e.end());
        }
      }
      if (!chunks.empty()) {
        auto window = read_contig(fd, lo, hi - lo);
        if (!window.is_ok()) {
          if (my_status.is_ok()) my_status = window.status();
        } else {
          // Group the chunks per requester and answer each with one
          // message. Chunks were collected in ascending source order, so
          // a flat append-grouped list matches the old map's iteration.
          std::vector<std::pair<int, std::vector<mpi::IoPiece>>> replies;
          for (const ReadChunk& chunk : chunks) {
            mpi::IoPiece piece;
            piece.file = chunk.extent;
            const Offset rel = chunk.extent.offset - lo;
            const Offset avail = window.value().size();
            const Offset take =
                std::clamp<Offset>(avail - rel, 0, chunk.extent.length);
            // Reads near EOF may come back short; pad with zeros so the
            // requester always gets what it asked for.
            std::vector<DataView> parts;
            if (take > 0) parts.push_back(window.value().slice(rel, take));
            if (take < chunk.extent.length) {
              parts.push_back(DataView::real(std::vector<std::byte>(
                  static_cast<std::size_t>(chunk.extent.length - take),
                  std::byte{0})));
            }
            piece.data = DataView::concat(parts);
            if (replies.empty() || replies.back().first != chunk.requester) {
              replies.emplace_back(chunk.requester,
                                   std::vector<mpi::IoPiece>{});
            }
            replies.back().second.push_back(std::move(piece));
          }
          for (auto& [dst, pieces] : replies) {
            Offset bytes = 0;
            for (const mpi::IoPiece& piece : pieces) {
              bytes += piece.file.length;
            }
            send_requests.push_back(comm.isend(dst, static_cast<int>(round),
                                               std::move(pieces), bytes));
          }
        }
      }
    }

    {
      obs::Span phase(ctx.tracer, me, prof::Phase::exchange);
      mpi::Request::wait_all(recv_requests);
      mpi::Request::wait_all(send_requests);
    }

    for (mpi::Request& request : recv_requests) {
      const auto pieces = request.take<std::vector<mpi::IoPiece>>();
      for (const mpi::IoPiece& piece : pieces) {
        assembled.write(piece.file.offset, piece.data);
      }
    }
  }

  {
    obs::Span phase(ctx.tracer, me, prof::Phase::post_write);
    const Status agreed = agree_status(comm, my_status);
    if (!agreed.is_ok()) return agreed;
  }

  std::vector<DataView> out;
  out.reserve(wanted.size());
  for (const Extent& want : wanted) {
    out.push_back(want.empty() ? DataView()
                               : assembled.read(want.offset, want.length));
  }
  return out;
}

}  // namespace e10::adio

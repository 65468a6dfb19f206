// Extended two-phase collective write (ADIOI_GEN_WriteStridedColl +
// ADIOI_Exch_and_write + ADIOI_W_Exchange_data), the paper's Fig. 2:
//
//   1. all ranks exchange access-pattern offsets        (MPI_Allgather)
//   2. file domains are computed from the global region (RoundPlanner)
//   3. per round: dissemination of send sizes           (MPI_Alltoall)
//                 data shuffle to aggregators           (isend/irecv/waitall)
//                 aggregators write the collective buffer (WritePipeline)
//   4. error codes are exchanged                        (MPI_Allreduce)
//
// Steps 1, 3a and 4 are the global synchronisation points whose cost the
// paper's breakdown figures measure. The aggregator write in step 3 is
// double-buffered (e10_pipeline_flag, docs/pipeline.md): round r's write
// stays in flight while round r+1's dissemination and shuffle proceed, and
// the aggregator joins it before reusing the collective buffer.
//
// With e10_two_level_flag active (docs/two_level.md) step 3 runs a
// two-stage exchange instead of the flat one: each node's contributions are
// first gathered to the node leader over the cheap intra-node transport
// (shuffle_intra), and only leaders send data to the aggregators
// (shuffle_inter) — p-to-A NIC flows collapse to L-to-A. Step 3a's
// dissemination disappears entirely: senders and receivers derive which
// (leader, aggregator) pairs talk from the step-1 allgather (each node's
// extent hull vs each aggregator's round window), and the exact segment
// count rides in-band in the pair's first message (the manifest), so the
// two-level rounds have no collective synchronisation at all. The flag
// off takes the flat path below, bit for bit.
#include <algorithm>
#include <optional>
#include <utility>

#include "adio/adio_file.h"
#include "adio/coll_common.h"
#include "adio/pipeline.h"
#include "adio/round_plan.h"

namespace e10::adio {

namespace {

std::vector<mpi::IoPiece> sorted_by_offset(std::vector<mpi::IoPiece> pieces) {
  std::sort(pieces.begin(), pieces.end(),
            [](const mpi::IoPiece& a, const mpi::IoPiece& b) {
              return a.file.offset < b.file.offset;
            });
  return pieces;
}

/// Greedy packing for the two-level data stage: distributes `pieces` over
/// exactly `segments` buckets of at most `seg_bytes` each, cutting
/// individual pieces at segment boundaries. Callers guarantee the total
/// piece length fits (segments * seg_bytes).
std::vector<std::vector<mpi::IoPiece>> pack_segments(
    std::vector<mpi::IoPiece> pieces, std::size_t segments,
    Offset seg_bytes) {
  std::vector<std::vector<mpi::IoPiece>> out(segments);
  std::size_t seg = 0;
  Offset fill = 0;
  for (mpi::IoPiece& piece : pieces) {
    while (piece.file.length > 0) {
      if (fill == seg_bytes) {
        ++seg;
        fill = 0;
      }
      const Offset take = std::min(piece.file.length, seg_bytes - fill);
      mpi::IoPiece part;
      part.file = Extent{piece.file.offset, take};
      part.data = piece.data.slice(0, take);
      out[seg].push_back(std::move(part));
      piece.file.offset += take;
      piece.file.length -= take;
      piece.data = piece.data.slice(take, piece.file.length);
      fill += take;
    }
  }
  return out;
}

}  // namespace

Status write_strided_coll(AdioFile& fd,
                          const std::vector<mpi::IoPiece>& mine_in) {
  IoContext& ctx = *fd.ctx;
  const mpi::Comm& comm = fd.comm;
  const int me = comm.rank();

  const std::vector<mpi::IoPiece> mine = sorted_by_offset(mine_in);

  // --- Step 1: access-pattern exchange ------------------------------------
  Offset my_start = kNoOffset;
  Offset my_end = kNoOffset;  // exclusive
  if (!mine.empty()) {
    my_start = mine.front().file.offset;
    my_end = mine.back().file.end();
  }
  const std::shared_ptr<const GlobalAccess> access =
      exchange_offsets(ctx, comm, my_start, my_end);

  if (fd.hints.romio_cb_write == Toggle::disable ||
      (fd.hints.romio_cb_write == Toggle::automatic && !access->interleaved)) {
    const Status independent = write_strided(fd, mine);
    obs::Span phase(ctx.tracer, me, prof::Phase::post_write);
    return agree_status(comm, independent);
  }

  // --- Step 2: global region, file domains, round plan ---------------------
  if (access->start == kNoOffset) {
    // Nobody has data; stay collective and agree on success.
    obs::Span phase(ctx.tracer, me, prof::Phase::post_write);
    return agree_status(comm, Status::ok());
  }

  Offset ntimes = 0;
  std::vector<Extent> domains;
  std::vector<RoundPlan<mpi::IoPiece>> plan;
  {
    obs::Span phase(ctx.tracer, me, prof::Phase::calc);

    // The BeeGFS/Lustre driver aligns file domains to stripe boundaries so
    // aggregators never false-share a stripe lock (paper footnote 1).
    std::optional<Offset> align;
    if (fd.driver == Driver::beegfs && fd.stripe_unit > 0) {
      align = fd.stripe_unit;
    }
    RoundPlanner planner(Extent{access->start, access->end - access->start},
                         fd.aggregator_nodes, fd.hints.cb_buffer_size, align,
                         fd.two_level);
    ntimes = planner.rounds();
    domains = planner.domains();

    // --- Step 3 (local part): which (aggregator, round) each of my pieces
    // feeds. Pieces are sorted, so the planner's monotonic domain cursor
    // never needs to rewind.
    plan.resize(static_cast<std::size_t>(ntimes));
    for (const mpi::IoPiece& piece : mine) {
      planner.split(piece.file, [&](Offset round, std::size_t agg_index,
                                    const Extent& sub) {
        mpi::IoPiece part;
        part.file = sub;
        part.data = piece.data.slice(sub.offset - piece.file.offset,
                                     sub.length);
        plan_append(plan, round, agg_index, std::move(part));
      });
    }
  }

  // --- Step 3: rounds of dissemination + shuffle + write -------------------
  Status my_status = Status::ok();
  obs::Histogram& a2a_hist = ctx.metrics.histogram(
      obs::names::kAlltoallSendBytes, obs::byte_size_bounds());
  // Resolved only on the two-level path, so flat runs' metrics omit them.
  obs::Counter* tl_rounds = nullptr;
  obs::Counter* tl_intra_msgs = nullptr;
  obs::Counter* tl_intra_bytes = nullptr;
  obs::Counter* tl_inter_msgs = nullptr;
  obs::Counter* tl_inter_bytes = nullptr;
  if (fd.two_level) {
    tl_rounds = &ctx.metrics.counter(obs::names::kTwoLevelRounds);
    tl_intra_msgs = &ctx.metrics.counter(obs::names::kTwoLevelIntraMsgs);
    tl_intra_bytes = &ctx.metrics.counter(obs::names::kTwoLevelIntraBytes);
    tl_inter_msgs = &ctx.metrics.counter(obs::names::kTwoLevelInterMsgs);
    tl_inter_bytes = &ctx.metrics.counter(obs::names::kTwoLevelInterBytes);
  }

  // Two-level topology, fixed for the operation (pure computation — no
  // virtual time passes here), read from the communicator's node table.
  // Every rank shares the node hulls step 1 folded, so senders and
  // receivers derive the per-round message pattern without any further
  // dissemination: leader l sends aggregator a a (possibly empty) bucket in
  // round r exactly when l's hull intersects a's round-r window.
  const int my_leader = fd.two_level ? comm.node_leader(me) : me;
  const std::vector<int>& leader_ranks = comm.node_leaders();  // ascending
  const std::size_t my_leader_index = comm.leader_index(me);
  const std::vector<int>& my_members = comm.node_ranks(comm.node());
  const std::vector<std::pair<Offset, Offset>>& node_hull = access->node_hulls;
  // Round-r window of aggregator a's file domain (empty when the domain is
  // exhausted), and whether leader l's hull touches it. A leader owes each
  // overlapping window exactly one manifest message — the first (possibly
  // empty) data segment plus the count of follow-on segments, all sized
  // at most Hints::kTwoLevelSegmentBytes so every message stays under the
  // fabric's eager threshold and streams while the previous round's write
  // drains. The hull only decides *which* pairs talk; the segment count
  // rides in the manifest, so holes inside a hull (common for strided
  // patterns, whose per-rank hulls span nearly the whole file) cost one
  // near-empty message instead of a hull's worth of empty segments.
  const auto window = [&](std::size_t agg, Offset round) -> Extent {
    const Extent& dom = domains[agg];
    const Offset start = dom.offset + round * fd.hints.cb_buffer_size;
    if (dom.empty() || start >= dom.end()) return Extent{0, 0};
    return Extent{start, std::min(fd.hints.cb_buffer_size, dom.end() - start)};
  };
  const auto overlaps = [](const std::pair<Offset, Offset>& hull,
                           const Extent& w) -> bool {
    if (hull.first == kNoOffset || w.empty()) return false;
    return std::max(hull.first, w.offset) < std::min(hull.second, w.end());
  };

  WritePipeline pipeline(fd, fd.hints.e10_pipeline);
  // Round-persistent exchange buffers: the request lists and the
  // aggregator's receive staging survive across rounds. The second group
  // serves the two-level stages.
  std::vector<mpi::Request> requests;
  std::vector<mpi::IoPiece> received;
  std::vector<mpi::Request> gathers;
  std::vector<mpi::Request> sends;
  std::vector<mpi::Request> manifests;
  std::vector<int> manifest_src;  // leader world rank per manifest
  std::vector<mpi::Request> extras;
  for (Offset round = 0; round < ntimes; ++round) {
    auto& round_plan = plan[static_cast<std::size_t>(round)];

    obs::Span round_span;
    if (ctx.tracer.enabled()) {
      round_span =
          obs::Span(&ctx.tracer, ctx.tracer.rank_track(me), "write_round");
      round_span.arg("round", static_cast<std::int64_t>(round));
      round_span.arg("pipelined",
                     static_cast<std::int64_t>(pipeline.enabled() ? 1 : 0));
    }

    Offset round_send_bytes = 0;
    std::vector<std::pair<int, Offset>> send_counts;  // (aggregator, bytes)
    for (const auto& [agg_index, pieces] : round_plan) {
      Offset bytes = 0;
      for (const mpi::IoPiece& piece : pieces) bytes += piece.file.length;
      if (!fd.two_level) {
        send_counts.emplace_back(fd.aggregators[agg_index], bytes);
      }
      round_send_bytes += bytes;
      // The per-sender histogram: flat mode observes every rank's per-
      // aggregator flow; two-level mode observes the leaders' merged flows
      // below, after the intra-node gather.
      if (!fd.two_level) a2a_hist.observe(bytes);
    }
    round_span.arg("send_bytes", static_cast<std::int64_t>(round_send_bytes));

    if (!fd.two_level) {
      // ---- Flat exchange (classic ext2ph) --------------------------------
      // Only aggregators are addressed, so only they learn of senders.
      std::vector<std::pair<int, Offset>> senders;  // (source, bytes)
      {
        obs::Span phase(ctx.tracer, me, prof::Phase::shuffle_all2all);
        senders = comm.alltoall(std::move(send_counts), sizeof(Offset));
      }

      // The shuffle lands in a collective buffer; with the pipeline enabled
      // the oldest in-flight round's write must be joined before its buffer
      // is reused for this round's receives.
      pipeline.acquire_buffer();

      requests.clear();
      for (const auto& [src, bytes] : senders) {
        requests.push_back(comm.irecv(src, static_cast<int>(round)));
      }
      const std::size_t nrecv = requests.size();
      for (auto& [agg_index, pieces] : round_plan) {
        Offset bytes = 0;
        for (const mpi::IoPiece& piece : pieces) bytes += piece.file.length;
        requests.push_back(comm.isend(fd.aggregators[agg_index],
                                      static_cast<int>(round),
                                      std::move(pieces), bytes));
      }
      {
        obs::Span phase(ctx.tracer, me, prof::Phase::exchange);
        phase.arg("requests",
                         static_cast<std::int64_t>(requests.size()));
        mpi::Request::wait_all(requests);
      }

      if (nrecv > 0) {
        received.clear();
        for (std::size_t i = 0; i < nrecv; ++i) {
          auto pieces = requests[i].take<std::vector<mpi::IoPiece>>();
          received.insert(received.end(),
                          std::make_move_iterator(pieces.begin()),
                          std::make_move_iterator(pieces.end()));
        }
        received = sorted_by_offset(std::move(received));
        const Status written = pipeline.issue_round(round, received);
        if (my_status.is_ok()) my_status = written;
      }
      continue;
    }

    // ---- Two-level exchange (docs/two_level.md) --------------------------
    // Two tags per round keep the stages' matching separate; members race
    // ahead into round r+1's gather while round r's write is in flight,
    // exactly like the flat shuffle overlaps under the pipeline.
    const int tag_gather = 2 * static_cast<int>(round);
    const int tag_data = tag_gather + 1;
    if (me == leader_ranks.front()) tl_rounds->increment();

    // Stage 1: gather this node's buckets to the leader (shared memory).
    // Members always send — possibly an empty bucket — so the leader's
    // per-member receive matching stays deterministic.
    RoundPlan<mpi::IoPiece> merged;
    if (me != my_leader) {
      obs::Span phase(ctx.tracer, me, prof::Phase::shuffle_intra);
      mpi::Request req = comm.isend(my_leader, tag_gather,
                                    std::move(round_plan), round_send_bytes);
      req.wait();
      tl_intra_msgs->increment();
      tl_intra_bytes->add(round_send_bytes);
    } else {
      merged = std::move(round_plan);
      gathers.clear();
      {
        obs::Span phase(ctx.tracer, me, prof::Phase::shuffle_intra);
        phase.arg("members",
                         static_cast<std::int64_t>(my_members.size()));
        for (int r : my_members) {
          if (r != me) gathers.push_back(comm.irecv(r, tag_gather));
        }
        mpi::Request::wait_all(gathers);
      }
      // Merge member buckets in ascending rank order; the leader (lowest
      // rank on the node) contributed first via the move above.
      for (mpi::Request& req : gathers) {
        plan_merge(merged, req.take<RoundPlan<mpi::IoPiece>>());
      }
    }

    // Same buffer discipline as the flat path: join the oldest in-flight
    // round's write before posting this round's data receives.
    pipeline.acquire_buffer();

    // Stage 2: leaders send merged data to the aggregators. Which pairs
    // talk is the hull-vs-window overlap both sides computed up front — no
    // per-round count dissemination and no leader barrier. Each talking
    // pair exchanges one manifest (follow-on segment count + the first
    // segment's pieces) and that many extra segments, every message eager-
    // sized, so the aggregator learns the exact count in-band: by the time
    // a manifest is decoded its extras have already buffered at the
    // receiver and the follow-on receives complete instantly. Manifest
    // receives are posted before any send; a leader-aggregator's
    // self-destined bucket short-circuits locally with no message.
    using Manifest = std::pair<std::size_t, std::vector<mpi::IoPiece>>;
    sends.clear();
    manifests.clear();
    manifest_src.clear();
    std::vector<mpi::IoPiece> local;
    received.clear();
    {
      obs::Span phase(ctx.tracer, me, prof::Phase::shuffle_inter);
      if (fd.is_aggregator()) {
        const Extent my_window = window(
            static_cast<std::size_t>(fd.aggregator_index), round);
        for (std::size_t l = 0; l < leader_ranks.size(); ++l) {
          if (leader_ranks[l] == me) continue;
          if (!overlaps(node_hull[l], my_window)) continue;
          manifests.push_back(comm.irecv(leader_ranks[l], tag_data));
          manifest_src.push_back(leader_ranks[l]);
        }
      }
      if (me == my_leader) {
        // merged ascends by agg_index, so one forward cursor serves the
        // ascending aggregator scan.
        auto merged_it = merged.begin();
        for (std::size_t a = 0; a < fd.aggregators.size(); ++a) {
          if (!overlaps(node_hull[my_leader_index], window(a, round))) {
            continue;
          }
          while (merged_it != merged.end() && merged_it->agg_index < a) {
            ++merged_it;
          }
          std::vector<mpi::IoPiece> pieces;
          if (merged_it != merged.end() && merged_it->agg_index == a) {
            pieces = std::move(merged_it->items);
          }
          const int agg_rank = fd.aggregators[a];
          if (agg_rank == me) {
            local = std::move(pieces);
            continue;
          }
          Offset total = 0;
          for (const mpi::IoPiece& piece : pieces) total += piece.file.length;
          const auto nsegs = static_cast<std::size_t>(std::max<Offset>(
              1, (total + Hints::kTwoLevelSegmentBytes - 1) /
                     Hints::kTwoLevelSegmentBytes));
          auto segments = pack_segments(std::move(pieces), nsegs,
                                        Hints::kTwoLevelSegmentBytes);
          const bool same_node = comm.node_of(agg_rank) == comm.node();
          for (std::size_t s = 0; s < segments.size(); ++s) {
            Offset bytes = 0;
            for (const mpi::IoPiece& piece : segments[s]) {
              bytes += piece.file.length;
            }
            a2a_hist.observe(bytes);
            if (same_node) {
              tl_intra_msgs->increment();
              tl_intra_bytes->add(bytes);
            } else {
              tl_inter_msgs->increment();
              tl_inter_bytes->add(bytes);
            }
            // Segment 0 doubles as the manifest carrying the extra count.
            sends.push_back(
                s == 0 ? comm.isend(agg_rank, tag_data,
                                    Manifest{nsegs - 1,
                                             std::move(segments[s])},
                                    bytes)
                       : comm.isend(agg_rank, tag_data,
                                    std::move(segments[s]), bytes));
          }
        }
      }
      received = std::move(local);
      for (std::size_t i = 0; i < manifests.size(); ++i) {
        manifests[i].wait();
        auto [extra, pieces] = manifests[i].take<Manifest>();
        received.insert(received.end(),
                        std::make_move_iterator(pieces.begin()),
                        std::make_move_iterator(pieces.end()));
        extras.clear();
        for (std::size_t e = 0; e < extra; ++e) {
          extras.push_back(comm.irecv(manifest_src[i], tag_data));
        }
        mpi::Request::wait_all(extras);
        for (mpi::Request& req : extras) {
          auto more = req.take<std::vector<mpi::IoPiece>>();
          received.insert(received.end(),
                          std::make_move_iterator(more.begin()),
                          std::make_move_iterator(more.end()));
        }
      }
      phase.arg("requests", static_cast<std::int64_t>(
                                       sends.size() + manifests.size()));
      mpi::Request::wait_all(sends);
    }

    if (fd.is_aggregator() && !received.empty()) {
      received = sorted_by_offset(std::move(received));
      const Status written = pipeline.issue_round(round, received);
      if (my_status.is_ok()) my_status = written;
    }
  }

  // Join every in-flight write before agreeing on the outcome; the drain
  // stalls (if any) are charged to the write phase by the pipeline.
  pipeline.drain();

  // --- Step 4: error-code exchange -----------------------------------------
  {
    obs::Span phase(ctx.tracer, me, prof::Phase::post_write);
    return agree_status(comm, my_status);
  }
}

}  // namespace e10::adio

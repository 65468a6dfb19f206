// Staged round pipeline for the extended two-phase collective write.
//
// RoundPlanner owns the planning half of ext2ph — file domains, round
// count, and the (round, aggregator) window each byte of an access list
// feeds — shared by the collective write and read paths (it used to be
// duplicated in both).
//
// WritePipeline owns the execution half on the aggregator side: the
// collective buffer is double-buffered, so round r's write to the cache (or
// the PFS) stays in flight while round r+1's dissemination and data shuffle
// proceed. The aggregator joins the oldest in-flight round's write handle
// before reusing its buffer (acquire_buffer), and drains everything before
// the collective error exchange. With the pipeline disabled every round's
// write is joined at issue time, which is exactly the classic synchronous
// ext2ph round loop. See docs/pipeline.md for the stage diagram.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "adio/adio_file.h"
#include "common/thread_safety.h"
#include "sim/async.h"
#include "sim/concurrency.h"
#include "sim/fifo.h"

namespace e10::adio {

/// File-domain and round planning for one collective operation.
class RoundPlanner {
 public:
  /// `region` is the global access region [gmin, gmax); domains are
  /// stripe-aligned when `align` is set (BeeGFS driver). An empty region
  /// yields zero rounds and no domains.
  RoundPlanner(const Extent& region, std::size_t aggregator_count,
               Offset cb_buffer_size, std::optional<Offset> align);

  /// Topology-aware overload for the two-level exchange (docs/two_level.md).
  /// `aggregator_nodes[i]` is the node hosting aggregator i. With
  /// `two_level` set and more than one distinct node, domains come from
  /// partition_node_aware_domains (cb-block-quantized, node-grouped);
  /// otherwise the plan is byte-identical to the flat constructor — the
  /// disabled path reproduces flat behaviour bit-for-bit.
  RoundPlanner(const Extent& region,
               const std::vector<std::size_t>& aggregator_nodes,
               Offset cb_buffer_size, std::optional<Offset> align,
               bool two_level);

  const std::vector<Extent>& domains() const { return domains_; }
  /// Number of exchange-and-write rounds (ROMIO's ntimes): the maximum
  /// over domains of ceil(domain length / collective buffer size).
  Offset rounds() const { return rounds_; }
  Offset cb_buffer_size() const { return cb_; }

  /// Splits `extent` into the (round, aggregator, sub-extent) windows that
  /// serve it, invoking emit(Offset round, std::size_t aggregator_index,
  /// const Extent& sub) in file order. Callers must feed extents in
  /// nondecreasing offset order across calls — the planner advances a
  /// monotonic domain cursor, never rewinding (sorted access lists
  /// guarantee this, as in ROMIO). Zero-length extents emit nothing.
  template <typename Emit>
  void split(const Extent& extent, Emit&& emit) {
    Offset cursor = extent.offset;
    while (cursor < extent.end()) {
      while (domain_ + 1 < domains_.size() &&
             (domains_[domain_].empty() ||
              cursor >= domains_[domain_].end())) {
        ++domain_;
      }
      const Extent& dom = domains_[domain_];
      const Offset round = (cursor - dom.offset) / cb_;
      const Offset window_end =
          std::min(dom.offset + (round + 1) * cb_, dom.end());
      const Offset take = std::min(extent.end(), window_end) - cursor;
      emit(round, domain_, Extent{cursor, take});
      cursor += take;
    }
  }

  /// Resets the domain cursor so another sorted pass can be planned.
  void rewind() { domain_ = 0; }

 private:
  std::vector<Extent> domains_;
  Offset cb_ = 0;
  Offset rounds_ = 0;
  std::size_t domain_ = 0;  // monotonic cursor into domains_
};

/// Double-buffered aggregator write stage. All methods must run inside the
/// owning rank's simulated process; the pipeline state itself is owned by
/// that one rank (registered with the concurrency checker — the in-flight
/// write is the device's business, the handle bookkeeping is ours).
class WritePipeline {
 public:
  /// Number of collective buffers. One round's write can be in flight per
  /// buffer beyond the one being filled, so at most kBuffers writes are
  /// outstanding and a buffer is reclaimed two rounds after it was issued.
  static constexpr std::size_t kBuffers = 2;

  WritePipeline(AdioFile& fd, bool enabled);
  WritePipeline(const WritePipeline&) = delete;
  WritePipeline& operator=(const WritePipeline&) = delete;
  ~WritePipeline();

  bool enabled() const { return enabled_; }

  /// Joins in-flight writes until a collective buffer is free for the next
  /// round's shuffle. Call before posting the round's receives.
  void acquire_buffer();

  /// Writes one round's collected pieces (sorted by file offset) as
  /// maximal contiguous runs — one iwrite_contig per run, holes split the
  /// write, exactly what flushing the collective buffer does in ROMIO.
  /// Returns the issue status (statuses are fully determined at issue time
  /// in this model). With the pipeline disabled the writes are joined
  /// before returning.
  Status issue_round(Offset round, const std::vector<mpi::IoPiece>& pieces);

  /// Joins every in-flight write. Idempotent; also run by the destructor.
  void drain();

  /// Join-point accounting across the pipeline's lifetime.
  const sim::OverlapAccumulator& overlap() const { return overlap_; }

 private:
  struct InFlightRound {
    Offset round = 0;
    std::vector<WriteHandle> handles;
  };

  /// Joins the oldest in-flight round and updates the overlap accounting.
  void join_oldest();

  AdioFile& fd_;
  bool enabled_ = false;
  sim::Fifo<InFlightRound> in_flight_ E10_TRACKED_BY(state_var_);
  sim::OverlapAccumulator overlap_ E10_TRACKED_BY(state_var_);
  /// Pipeline bookkeeping is single-owner state of the issuing rank; the
  /// checker verifies nothing else ever touches it.
  sim::SharedVar state_var_;
  // Resolved once, at construction.
  obs::Counter* writes_counter_ = nullptr;
  obs::Counter* stalls_counter_ = nullptr;
  obs::Counter* stall_ns_counter_ = nullptr;
  obs::Counter* write_ns_counter_ = nullptr;
  obs::Counter* hidden_ns_counter_ = nullptr;
};

}  // namespace e10::adio

// MPE-like phase profiler.
//
// The paper extracts per-phase time contributions of the collective write
// path (Fig. 2) with MPE instrumentation and plots them in Figs. 5/6/8/10:
// shuffle_all2all (dissemination), exchange (waitall), write, post_write
// (error-code allreduce) and not_hidden_sync (cache flush time not hidden by
// compute). This profiler records named intervals per rank in virtual time
// and aggregates them the same way.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/engine.h"

namespace e10::prof {

enum class Phase : std::size_t {
  open = 0,
  offset_exchange,    // initial access-pattern allgather
  calc,               // file-domain / request mapping computation
  shuffle_intra,      // two-level stage 1: intra-node gather to the leader
  shuffle_all2all,    // per-round dissemination MPI_Alltoall
  shuffle_inter,      // two-level stage 2: leaders-only data exchange
  exchange,           // isend/irecv/waitall of the data shuffle
  write_contig,       // ADIO_WriteContig (to PFS or to the cache)
  post_write,         // final error-code MPI_Allreduce
  flush_wait,         // waiting on sync grequests inside flush
  not_hidden_sync,    // sync time not hidden by compute (deferred close)
  read_contig,
  close,
  count
};

constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::count);

const char* phase_name(Phase phase);

class Profiler {
 public:
  Profiler(sim::Engine& engine, int ranks);

  /// Adds `duration` to (rank, phase).
  void record(int rank, Phase phase, Time duration);

  /// RAII interval: measures from construction to destruction in virtual
  /// time and records it.
  class Scope {
   public:
    Scope(Profiler& profiler, int rank, Phase phase)
        : profiler_(&profiler),
          rank_(rank),
          phase_(phase),
          start_(profiler.engine_.now()) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      profiler_->record(rank_, phase_, profiler_->engine_.now() - start_);
    }

   private:
    Profiler* profiler_;
    int rank_;
    Phase phase_;
    Time start_;
  };

  Scope scope(int rank, Phase phase) { return Scope(*this, rank, phase); }

  /// Total time rank spent in phase.
  Time rank_total(int rank, Phase phase) const;

  /// Maximum over ranks of the per-rank totals — the "slowest path"
  /// contribution the stacked figures show.
  Time max_over_ranks(Phase phase) const;

  /// Mean over ranks.
  Time avg_over_ranks(Phase phase) const;

  /// Minimum over ranks.
  Time min_over_ranks(Phase phase) const;

  /// Nearest-rank percentile over the per-rank totals, q in [0, 1]. The
  /// spread between p50 and max is the straggler signature a max/avg pair
  /// hides.
  Time percentile_over_ranks(Phase phase, double q) const;

  int ranks() const { return static_cast<int>(totals_.size()); }

 private:
  friend class Scope;
  sim::Engine& engine_;
  std::vector<std::array<Time, kPhaseCount>> totals_;  // [rank][phase]
};

}  // namespace e10::prof

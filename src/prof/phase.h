// Phases of the collective I/O path, named after the paper's MPE
// instrumentation.
//
// The paper extracts per-phase time contributions of the collective write
// path (Fig. 2) with MPE instrumentation and plots them in Figs. 5/6/8/10:
// shuffle_all2all (dissemination), exchange (waitall), write, post_write
// (error-code allreduce) and not_hidden_sync (cache flush time not hidden by
// compute). A phase interval is an obs::Span opened with a rank and a Phase;
// the tracer keeps the per-rank totals (obs/trace.h) and the run report
// aggregates them over ranks (obs/report.h).
#pragma once

#include <cstddef>

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

/// Stable phase name: the run report's phase keys and the trace's span
/// names.
constexpr const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::open: return "open";
    case Phase::offset_exchange: return "offset_exchange";
    case Phase::calc: return "calc";
    case Phase::shuffle_intra: return "shuffle_intra";
    case Phase::shuffle_all2all: return "shuffle_all2all";
    case Phase::shuffle_inter: return "shuffle_inter";
    case Phase::exchange: return "exchange";
    case Phase::write_contig: return "write_contig";
    case Phase::post_write: return "post_write";
    case Phase::flush_wait: return "flush_wait";
    case Phase::not_hidden_sync: return "not_hidden_sync";
    case Phase::read_contig: return "read_contig";
    case Phase::close: return "close";
    case Phase::count: break;
  }
  return "?";
}

}  // namespace e10::prof

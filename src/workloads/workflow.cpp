#include "workloads/workflow.h"

#include <algorithm>
#include <stdexcept>

#include "adio/adio_file.h"
#include "mpiio/file.h"

namespace e10::workloads {

WorkflowResult run_workflow(Platform& platform, const Workload& workload,
                            const WorkflowParams& params) {
  const int nranks = platform.ranks();
  const int nfiles = params.num_files;
  if (nfiles <= 0) throw std::logic_error("run_workflow: num_files <= 0");

  // Per-rank, per-file measurements, reduced after the run.
  std::vector<std::vector<Time>> write_times(
      static_cast<std::size_t>(nranks),
      std::vector<Time>(static_cast<std::size_t>(nfiles), 0));
  std::vector<std::vector<Time>> residuals(
      static_cast<std::size_t>(nranks),
      std::vector<Time>(static_cast<std::size_t>(nfiles), 0));
  std::vector<Offset> bytes_per_rank(static_cast<std::size_t>(nranks), 0);

  platform.launch([&](mpi::Comm comm) {
    sim::Engine& engine = comm.engine();
    const std::size_t me = static_cast<std::size_t>(comm.rank());
    bytes_per_rank[me] = workload.bytes_per_rank(comm);
    obs::Tracer* tracer = platform.tracer.enabled() ? &platform.tracer
                                                    : nullptr;
    const int track =
        tracer != nullptr ? tracer->rank_track(comm.rank()) : 0;

    mpiio::File previous;  // deferred close target
    int previous_index = -1;

    auto really_close = [&](mpiio::File file, int index) {
      obs::Span span(platform.tracer, comm.rank(),
                     prof::Phase::not_hidden_sync);
      span.arg("file", static_cast<std::int64_t>(index));
      const Status closed = file.close();
      if (!closed.is_ok()) {
        throw std::runtime_error("workflow close failed: " +
                                 closed.to_string());
      }
      residuals[me][static_cast<std::size_t>(index)] = span.end();
    };

    for (int k = 0; k < nfiles; ++k) {
      // Fig. 3: file k-1 is closed just before file k is opened.
      if (previous.valid()) {
        really_close(std::move(previous), previous_index);
        previous = mpiio::File();
      }
      const std::string path =
          params.base_path + "_" + std::to_string(k);
      auto file = mpiio::File::open(
          platform.ctx, comm, path,
          adio::amode::create | adio::amode::rdwr, params.hints);
      if (!file.is_ok()) {
        throw std::runtime_error("workflow open failed: " +
                                 file.status().to_string());
      }

      const Time t0 = engine.now();
      {
        obs::Span span(tracer, track, "write_file");
        span.arg("file", static_cast<std::int64_t>(k));
        const Status written = workload.write_file(file.value(), comm, k);
        if (!written.is_ok()) {
          throw std::runtime_error("workflow write failed: " +
                                   written.to_string());
        }
      }
      write_times[me][static_cast<std::size_t>(k)] = engine.now() - t0;

      if (params.deferred_close) {
        previous = std::move(file).value();
        previous_index = k;
      } else {
        really_close(std::move(file).value(), k);
      }

      // Compute phase C(k+1); the background sync threads keep draining in
      // virtual time while this rank "computes". No compute phase follows
      // the last write (Fig. 3) — its synchronisation can never be hidden.
      if (k + 1 < nfiles) {
        obs::Span span(tracer, track, "compute");
        engine.delay(params.compute_delay);
      }
    }
    if (previous.valid()) {
      really_close(std::move(previous), previous_index);
    }
  });
  platform.run();

  // Reduce: per file, the slowest rank defines the phase time (collective
  // operations synchronize, so this is what the application perceives).
  WorkflowResult result;
  result.phases.resize(static_cast<std::size_t>(nfiles));
  Offset bytes_all_ranks = 0;
  for (const Offset b : bytes_per_rank) bytes_all_ranks += b;
  for (int k = 0; k < nfiles; ++k) {
    PhaseTiming& phase = result.phases[static_cast<std::size_t>(k)];
    phase.bytes = bytes_all_ranks;
    for (int r = 0; r < nranks; ++r) {
      phase.write_time =
          std::max(phase.write_time,
                   write_times[static_cast<std::size_t>(r)]
                              [static_cast<std::size_t>(k)]);
      phase.residual_close =
          std::max(phase.residual_close,
                   residuals[static_cast<std::size_t>(r)]
                            [static_cast<std::size_t>(k)]);
    }
  }

  for (int k = 0; k < nfiles; ++k) {
    const PhaseTiming& phase = result.phases[static_cast<std::size_t>(k)];
    const bool last = k == nfiles - 1;
    result.total_bytes += phase.bytes;
    result.io_time += phase.write_time;
    if (!last || params.include_last_phase) {
      result.io_time += phase.residual_close;
    }
  }
  result.bandwidth_gib = bandwidth_gib(result.total_bytes, result.io_time);
  return result;
}

}  // namespace e10::workloads

#include "adio/pipeline.h"

#include <exception>

#include "adio/aggregation.h"
#include "sim/causal.h"

namespace e10::adio {

RoundPlanner::RoundPlanner(const Extent& region, std::size_t aggregator_count,
                           Offset cb_buffer_size, std::optional<Offset> align)
    : cb_(cb_buffer_size) {
  if (region.length <= 0 || aggregator_count == 0 || cb_ <= 0) return;
  domains_ = partition_file_domains(region, aggregator_count, align);
  for (const Extent& d : domains_) {
    rounds_ = std::max(rounds_, (d.length + cb_ - 1) / cb_);
  }
}

RoundPlanner::RoundPlanner(const Extent& region,
                           const std::vector<std::size_t>& aggregator_nodes,
                           Offset cb_buffer_size, std::optional<Offset> align,
                           bool two_level)
    : cb_(cb_buffer_size) {
  if (region.length <= 0 || aggregator_nodes.empty() || cb_ <= 0) return;
  // Node-aware planning only changes anything when some node hosts more
  // than one aggregator (select_aggregators returns ascending ranks under
  // block placement, so same-node entries are adjacent). One aggregator per
  // node — every ranks_per_node == 1 layout — or the flag off must
  // reproduce the flat plan byte-for-byte.
  const bool grouped =
      std::adjacent_find(aggregator_nodes.begin(), aggregator_nodes.end()) !=
      aggregator_nodes.end();
  domains_ =
      two_level && grouped
          ? partition_node_aware_domains(region, aggregator_nodes, cb_, align)
          : partition_file_domains(region, aggregator_nodes.size(), align);
  for (const Extent& d : domains_) {
    rounds_ = std::max(rounds_, (d.length + cb_ - 1) / cb_);
  }
}

WritePipeline::WritePipeline(AdioFile& fd, bool enabled)
    : fd_(fd),
      enabled_(enabled),
      state_var_(fd.ctx->engine, "adio.pipeline:" + fd.path + ":r" +
                                     std::to_string(fd.rank())) {
  // Instrument resolution mutates the shared registry from every rank's
  // collective call; claim the registry monitor for the checker.
  obs::MetricsRegistry& metrics = fd.ctx->metrics;
  const sim::MonitorGuard monitor(fd.ctx->engine, &metrics,
                                  obs::names::kMetricsMonitor);
  sim::shared_access(fd.ctx->engine, &metrics, obs::names::kMetricsRegistryVar,
                     /*is_write=*/true, E10_SITE);
  writes_counter_ = &metrics.counter(obs::names::kPipelineWrites);
  stalls_counter_ = &metrics.counter(obs::names::kPipelineStalls);
  stall_ns_counter_ = &metrics.counter(obs::names::kPipelineStallNs);
  write_ns_counter_ = &metrics.counter(obs::names::kPipelineWriteNs);
  hidden_ns_counter_ = &metrics.counter(obs::names::kPipelineHiddenNs);
}

// e10-lint-allow(unwind-blocking): drain() is gated on uncaught_exceptions
WritePipeline::~WritePipeline() {
  // Draining blocks, and a blocking call must not run while the fiber is
  // unwinding: a crash/cancellation would re-throw ProcessCancelled inside
  // this (noexcept) destructor and terminate the program. When an exception
  // is in flight the collective is being abandoned anyway — the in-flight
  // rounds' requests are dropped, not joined.
  if (std::uncaught_exceptions() == 0) drain();
}

void WritePipeline::acquire_buffer() {
  if (!enabled_ || in_flight_.empty()) return;
  E10_SHARED_READ(state_var_);
  while (in_flight_.size() >= kBuffers) join_oldest();
}

Status WritePipeline::issue_round(Offset round,
                                  const std::vector<mpi::IoPiece>& pieces) {
  if (pieces.empty()) return Status::ok();
  E10_SHARED_WRITE(state_var_);
  InFlightRound entry;
  entry.round = round;
  Status status = Status::ok();

  // Issue the round's content as maximal contiguous runs — holes split the
  // write, exactly what flushing the collective buffer does in ROMIO.
  std::size_t i = 0;
  while (i < pieces.size()) {
    std::size_t j = i + 1;
    Offset run_end = pieces[i].file.end();
    while (j < pieces.size() && pieces[j].file.offset == run_end) {
      run_end = pieces[j].file.end();
      ++j;
    }
    std::vector<DataView> parts;
    parts.reserve(j - i);
    for (std::size_t k = i; k < j; ++k) parts.push_back(pieces[k].data);
    WriteHandle handle =
        iwrite_contig(fd_, pieces[i].file.offset, DataView::concat(parts));
    if (!handle.status.is_ok() && status.is_ok()) status = handle.status;
    writes_counter_->increment();
    entry.handles.push_back(std::move(handle));
    i = j;
  }

  in_flight_.push_back(std::move(entry));
  if (!enabled_) {
    // Synchronous ext2ph: the round's write is joined before the next
    // round's dissemination starts.
    while (!in_flight_.empty()) join_oldest();
  }
  return status;
}

void WritePipeline::drain() {
  if (in_flight_.empty()) return;
  E10_SHARED_WRITE(state_var_);
  while (!in_flight_.empty()) join_oldest();
}

void WritePipeline::join_oldest() {
  InFlightRound entry = std::move(in_flight_.front());
  in_flight_.pop_front();
  // The stall (if any) is write time the pipeline failed to hide; it lands
  // in the same phase the blocking write path charged.
  obs::Span phase(fd_.ctx->tracer, fd_.rank(), prof::Phase::write_contig);
  phase.arg("round", static_cast<std::int64_t>(entry.round));
  for (WriteHandle& handle : entry.handles) {
    const Time join_at = fd_.ctx->engine.now();
    if (handle.request.valid()) handle.request.wait();
    const sim::JoinOutcome outcome =
        sim::split_join(handle.issued, handle.done, join_at);
    // A stalled join means this rank was gated on the write's service time:
    // record the async interval for critical-path attribution.
    if (sim::CausalObserver* causal = fd_.ctx->engine.causal_observer();
        causal != nullptr && outcome.stall > 0) {
      causal->bridge(sim::EdgeKind::write_join, fd_.ctx->engine.current(),
                     handle.issued, handle.done);
    }
    write_ns_counter_->add(handle.done - handle.issued);
    hidden_ns_counter_->add(outcome.hidden);
    stall_ns_counter_->add(outcome.stall);
    if (outcome.stall > 0) stalls_counter_->increment();
  }
  // The joined writes' completion synchronised with this rank: ownership of
  // the buffer (and the handle bookkeeping) is exclusively ours again.
  state_var_.handoff();
}

}  // namespace e10::adio

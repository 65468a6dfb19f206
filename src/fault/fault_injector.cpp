#include "fault/fault_injector.h"

#include "common/log.h"

namespace e10::fault {

void FaultInjector::arm(FaultPlan plan) {
  plan_ = std::move(plan);
  rngs_.clear();
  rngs_.reserve(kFaultOpCount);
  for (int i = 0; i < kFaultOpCount; ++i) {
    rngs_.emplace_back(
        Rng::derive(plan_.seed, fault_op_name(static_cast<FaultOp>(i))));
  }
  crash_fired_.assign(plan_.crashes.size(), false);
  stats_ = Stats{};
  armed_ = !plan_.empty();
  if (armed_) {
    log::info("fault", "armed: ", plan_.summary());
    ensure_track();
  }
}

void FaultInjector::set_observability(obs::Tracer* tracer) {
  tracer_ = tracer;
  fault_track_ = -1;
  if (armed_) ensure_track();
}

void FaultInjector::export_metrics(obs::MetricsRegistry& registry) const {
  if (!armed_) return;
  registry.publish(obs::names::kFaultInjected, stats_.injected);
  registry.publish(obs::names::kFaultOutageRejections,
                   stats_.outage_rejections);
  registry.publish(obs::names::kFaultCrashes, stats_.crashes);
  for (std::size_t i = 0; i < kFaultOpCount; ++i) {
    registry.publish(std::string("fault.") +
                         fault_op_name(static_cast<FaultOp>(i)) + ".injected",
                     stats_.injected_by_op[i]);
  }
}

void FaultInjector::ensure_track() {
  if (tracer_ != nullptr && fault_track_ < 0) {
    fault_track_ = tracer_->track("faults");
  }
}

void FaultInjector::mark(const std::string& label) {
  if (tracer_ != nullptr && tracer_->enabled() && fault_track_ >= 0) {
    tracer_->instant(fault_track_, label);
  }
}

void FaultInjector::force_failures(FaultOp op, int count, Errc errc,
                                   int after) {
  const std::size_t i = static_cast<std::size_t>(op);
  forced_[i] = count;
  forced_errc_[i] = errc;
  forced_after_[i] = after;
  if (count > 0 && !armed_) {
    // Forced failures arm the injector even without a plan; the RNG streams
    // still need to exist for any probabilistic rules armed later.
    if (rngs_.empty()) {
      for (int j = 0; j < kFaultOpCount; ++j) {
        rngs_.emplace_back(
            Rng::derive(plan_.seed, fault_op_name(static_cast<FaultOp>(j))));
      }
    }
    armed_ = true;
    ensure_track();
  }
}

Status FaultInjector::draw(FaultOp op) {
  const std::size_t i = static_cast<std::size_t>(op);
  if (forced_[i] > 0) {
    if (forced_after_[i] > 0) {
      --forced_after_[i];
    } else {
      --forced_[i];
      return inject(op, forced_errc_[i], /*charge_latency=*/false);
    }
  }
  const TransientRule& rule = plan_.transient[i];
  if (rule.probability > 0.0 && rngs_[i].bernoulli(rule.probability)) {
    return inject(op, rule.errc, /*charge_latency=*/true);
  }
  return Status::ok();
}

Status FaultInjector::inject(FaultOp op, Errc errc, bool charge_latency) {
  if (charge_latency && plan_.error_latency > 0 && engine_.in_process()) {
    engine_.delay(plan_.error_latency);
  }
  ++stats_.injected;
  ++stats_.injected_by_op[static_cast<std::size_t>(op)];
  mark(std::string(fault_op_name(op)) + " " + errc_name(errc));
  log::debug("fault", "injected ", errc_name(errc), " on ",
             fault_op_name(op));
  return Status::error(errc, std::string("fault: injected ") +
                                 errc_name(errc) + " on " +
                                 fault_op_name(op));
}

bool FaultInjector::server_down(int server, Time now) {
  if (!armed_) return false;
  for (const OutageWindow& w : plan_.outages) {
    if (w.server == server && w.hard() && w.covers(now)) {
      ++stats_.outage_rejections;
      mark("outage reject server " + std::to_string(server));
      return true;
    }
  }
  return false;
}

double FaultInjector::slowdown(int server, Time now) const {
  if (!armed_) return 1.0;
  double factor = 1.0;
  for (const OutageWindow& w : plan_.outages) {
    if (w.server == server && !w.hard() && w.covers(now)) {
      factor *= w.slowdown;
    }
  }
  return factor;
}

bool FaultInjector::crash_due(int rank, Time now, bool in_flush) {
  if (!armed_) return false;
  for (std::size_t i = 0; i < plan_.crashes.size(); ++i) {
    const CrashSpec& c = plan_.crashes[i];
    if (crash_fired_[i] || c.rank != rank) continue;
    bool due = c.during_flush ? in_flush : now >= c.at;
    if (!due) continue;
    crash_fired_[i] = true;
    ++stats_.crashes;
    mark("crash rank " + std::to_string(rank));
    log::warn("fault", "rank ", rank, " crash fired",
              c.during_flush ? " (during flush)" : "");
    return true;
  }
  return false;
}

}  // namespace e10::fault

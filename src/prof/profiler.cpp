#include "prof/profiler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace e10::prof {

const char* phase_name(Phase phase) {
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

Profiler::Profiler(sim::Engine& engine, int ranks) : engine_(engine) {
  if (ranks <= 0) throw std::logic_error("Profiler: ranks must be > 0");
  totals_.resize(static_cast<std::size_t>(ranks));
}

void Profiler::record(int rank, Phase phase, Time duration) {
  if (rank < 0 || static_cast<std::size_t>(rank) >= totals_.size()) {
    throw std::logic_error("Profiler::record: rank out of range");
  }
  if (duration < 0) throw std::logic_error("Profiler::record: negative time");
  totals_[static_cast<std::size_t>(rank)][static_cast<std::size_t>(phase)] +=
      duration;
}

Time Profiler::rank_total(int rank, Phase phase) const {
  return totals_.at(static_cast<std::size_t>(rank))[static_cast<std::size_t>(
      phase)];
}

Time Profiler::max_over_ranks(Phase phase) const {
  Time best = 0;
  for (const auto& row : totals_) {
    best = std::max(best, row[static_cast<std::size_t>(phase)]);
  }
  return best;
}

Time Profiler::avg_over_ranks(Phase phase) const {
  Time sum = 0;
  for (const auto& row : totals_) sum += row[static_cast<std::size_t>(phase)];
  return sum / static_cast<Time>(totals_.size());
}

Time Profiler::min_over_ranks(Phase phase) const {
  Time best = totals_.front()[static_cast<std::size_t>(phase)];
  for (const auto& row : totals_) {
    best = std::min(best, row[static_cast<std::size_t>(phase)]);
  }
  return best;
}

Time Profiler::percentile_over_ranks(Phase phase, double q) const {
  if (q < 0.0 || q > 1.0) {
    throw std::logic_error("Profiler::percentile_over_ranks: q outside [0,1]");
  }
  std::vector<Time> values;
  values.reserve(totals_.size());
  for (const auto& row : totals_) {
    values.push_back(row[static_cast<std::size_t>(phase)]);
  }
  std::sort(values.begin(), values.end());
  // Nearest-rank: smallest value with at least ceil(q * n) values <= it.
  const auto n = static_cast<double>(values.size());
  std::size_t index = 0;
  if (q > 0.0) {
    index = static_cast<std::size_t>(std::ceil(q * n)) - 1;
  }
  return values[std::min(index, values.size() - 1)];
}

}  // namespace e10::prof

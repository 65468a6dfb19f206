#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "common/units.h"

namespace e10::obs {

Time max_over_ranks(const PhaseTotals& totals, prof::Phase phase) {
  Time best = 0;
  for (const auto& row : totals) {
    best = std::max(best, row[static_cast<std::size_t>(phase)]);
  }
  return best;
}

Json phase_table_json(const PhaseTotals& totals) {
  if (totals.empty()) throw std::logic_error("phase_table_json: no ranks");
  const auto seconds = [](Time t) {
    return Json::number(units::to_seconds(t));
  };
  Json table = Json::object();
  std::vector<Time> column(totals.size());
  for (std::size_t p = 0; p < prof::kPhaseCount; ++p) {
    Time sum = 0;
    for (std::size_t r = 0; r < totals.size(); ++r) {
      column[r] = totals[r][p];
      sum += column[r];
    }
    std::sort(column.begin(), column.end());
    // Nearest-rank: smallest value with at least ceil(q * n) values <= it.
    const auto percentile = [&column](double q) {
      const auto n = static_cast<double>(column.size());
      const auto index = static_cast<std::size_t>(std::ceil(q * n)) - 1;
      return column[std::min(index, column.size() - 1)];
    };
    Json row = Json::object();
    row.set("min_s", seconds(column.front()));
    row.set("p50_s", seconds(percentile(0.50)));
    row.set("p95_s", seconds(percentile(0.95)));
    row.set("p99_s", seconds(percentile(0.99)));
    row.set("avg_s", seconds(sum / static_cast<Time>(column.size())));
    row.set("max_s", seconds(column.back()));
    table.set(prof::phase_name(static_cast<prof::Phase>(p)), std::move(row));
  }
  return table;
}

Json run_report_json(const RunReportInputs& inputs) {
  Json report = Json::object();

  Json config = Json::object();
  for (const auto& [key, value] : inputs.config) {
    config.set(key, Json::str(value));
  }
  report.set("config", std::move(config));

  if (inputs.phases != nullptr) {
    report.set("phases", phase_table_json(*inputs.phases));
  }
  if (inputs.metrics != nullptr) {
    report.set("metrics", inputs.metrics->as_json());
  }

  Json derived = Json::object();
  for (const auto& [key, value] : inputs.derived) {
    derived.set(key, Json::number(value));
  }
  report.set("derived", std::move(derived));

  if (!inputs.analysis.is_null()) {
    report.set("analysis", inputs.analysis);
  }
  return report;
}

double flush_overlap_ratio(const MetricsRegistry& metrics,
                           const PhaseTotals& totals) {
  const std::int64_t busy = metrics.counter_value(names::kSyncBusyNs);
  if (busy <= 0) return 0.0;
  // What each rank actually waited on its own sync grequests. The
  // not_hidden_sync phase would over-count: it times the collective close,
  // whose barrier charges the slowest rank's wait to everyone.
  Time visible = 0;
  for (const auto& row : totals) {
    visible += row[static_cast<std::size_t>(prof::Phase::flush_wait)];
  }
  const double hidden =
      static_cast<double>(busy) - static_cast<double>(visible);
  return std::clamp(hidden / static_cast<double>(busy), 0.0, 1.0);
}

Status write_json_file(const std::string& path, const Json& value) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return Status::error(Errc::io_error, "report: cannot open " + path);
  }
  const std::string body = value.dump(2) + "\n";
  file.write(body.data(), static_cast<std::streamsize>(body.size()));
  file.flush();
  if (!file) return Status::error(Errc::io_error, "report: write failed");
  return Status::ok();
}

}  // namespace e10::obs

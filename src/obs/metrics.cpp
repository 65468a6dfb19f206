#include "obs/metrics.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace e10::obs {

Histogram::Histogram(std::vector<std::int64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::logic_error("Histogram: bounds must be strictly ascending");
    }
  }
}

std::size_t Histogram::bucket_index(std::int64_t value) const {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  return static_cast<std::size_t>(it - bounds_.begin());
}

void Histogram::observe(std::int64_t value) {
  ++counts_[bucket_index(value)];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

std::int64_t Histogram::percentile(double q) const {
  if (q < 0.0 || q > 1.0) {
    throw std::logic_error("Histogram::percentile: q outside [0,1]");
  }
  if (count_ == 0) return 0;
  // Nearest-rank over the cumulative bucket counts.
  auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (target == 0) target = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= target) {
      if (i >= bounds_.size()) return max_;
      return std::clamp(bounds_[i], min_, max_);
    }
  }
  return max_;
}

std::vector<std::int64_t> exponential_bounds(std::int64_t first, int count,
                                             std::int64_t factor) {
  if (first <= 0 || count <= 0 || factor < 2) {
    throw std::logic_error("exponential_bounds: bad parameters");
  }
  std::vector<std::int64_t> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  std::int64_t bound = first;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

const std::vector<std::int64_t>& byte_size_bounds() {
  static const std::vector<std::int64_t> bounds = exponential_bounds(4096, 14);
  return bounds;
}

namespace {
/// The instrument named `name`, built by `make` when there is none.
template <typename Map, typename Make>
typename Map::mapped_type& find_or_make(Map& map, std::string_view name,
                                        Make make) {
  auto it = map.lower_bound(name);
  if (it == map.end() || it->first != name) {
    it = map.emplace_hint(it, std::string(name), make());
  }
  return it->second;
}
}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  return find_or_make(counters_, name, [] { return Counter{}; });
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return find_or_make(gauges_, name, [] { return Gauge{}; });
}

Histogram& MetricsRegistry::histogram(
    std::string_view name, const std::vector<std::int64_t>& bounds) {
  return find_or_make(histograms_, name, [&] { return Histogram(bounds); });
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

std::int64_t MetricsRegistry::counter_value(std::string_view name) const {
  const Counter* c = find_counter(name);
  return c == nullptr ? 0 : c->value();
}

std::int64_t MetricsRegistry::gauge_high_water(std::string_view name) const {
  const Gauge* g = find_gauge(name);
  return g == nullptr ? 0 : g->high_water();
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

Json MetricsRegistry::as_json() const {
  Json counters = Json::object();
  for (const auto& [name, c] : counters_) {
    counters.set(name, Json::integer(c.value()));
  }
  Json gauges = Json::object();
  for (const auto& [name, g] : gauges_) {
    Json entry = Json::object();
    entry.set("value", Json::integer(g.value()));
    entry.set("high_water", Json::integer(g.high_water()));
    gauges.set(name, std::move(entry));
  }
  Json histograms = Json::object();
  for (const auto& [name, h] : histograms_) {
    Json entry = Json::object();
    entry.set("count", Json::integer(static_cast<std::int64_t>(h.count())));
    entry.set("sum", Json::integer(h.sum()));
    entry.set("min", Json::integer(h.min()));
    entry.set("max", Json::integer(h.max()));
    entry.set("p50", Json::integer(h.percentile(0.50)));
    entry.set("p95", Json::integer(h.percentile(0.95)));
    entry.set("p99", Json::integer(h.percentile(0.99)));
    Json buckets = Json::array();
    const auto& bounds = h.bounds();
    const auto& counts = h.bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      Json bucket = Json::object();
      if (i < bounds.size()) {
        bucket.set("le", Json::integer(bounds[i]));
      } else {
        bucket.set("le", Json::str("inf"));
      }
      bucket.set("count", Json::integer(static_cast<std::int64_t>(counts[i])));
      buckets.push(std::move(bucket));
    }
    entry.set("buckets", std::move(buckets));
    histograms.set(name, std::move(entry));
  }
  Json out = Json::object();
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(histograms));
  return out;
}

}  // namespace e10::obs

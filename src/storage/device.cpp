#include "storage/device.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fault/fault_injector.h"

namespace e10::storage {

DeviceParams pfs_target_params() {
  DeviceParams p;
  // One BeeGFS data server over an 8+2 RAID6 of SAS drives: RAID parity and
  // server software give a substantial per-request latency, but requests
  // pipeline; the media streams ~560 MiB/s so that the paper's 4 data
  // servers peak near the measured ~2 GiB/s aggregate.
  p.base_latency = units::milliseconds(2);
  p.seek_penalty = units::milliseconds(2);
  p.write_bytes_per_second = Offset{560} * units::MiB;
  p.read_bytes_per_second = Offset{620} * units::MiB;
  p.jitter_sigma = 0.28;  // HDD arrays under shared load vary a lot
  return p;
}

DeviceParams local_ssd_params() {
  DeviceParams p;
  p.base_latency = units::microseconds(90);
  p.seek_penalty = 0;  // flash: no positional cost
  p.write_bytes_per_second = Offset{340} * units::MiB;
  p.read_bytes_per_second = Offset{480} * units::MiB;
  p.jitter_sigma = 0.05;
  return p;
}

Device::Device(std::string name, const DeviceParams& params,
               std::uint64_t seed)
    : name_(std::move(name)), params_(params), jitter_(seed) {
  if (params_.write_bytes_per_second <= 0 ||
      params_.read_bytes_per_second <= 0) {
    throw std::logic_error("Device bandwidth must be positive");
  }
  if (params_.speed_factor <= 0) {
    throw std::logic_error("Device speed_factor must be positive");
  }
  if (params_.stream_cursors == 0) {
    throw std::logic_error("Device needs at least one stream cursor");
  }
}

Time Device::expected_service(IoKind kind, Offset size, bool sequential) const {
  const Offset bps = kind == IoKind::write ? params_.write_bytes_per_second
                                           : params_.read_bytes_per_second;
  const double stream_ns =
      static_cast<double>(size) * 1e9 / static_cast<double>(bps);
  double total = static_cast<double>(params_.base_latency) + stream_ns;
  if (!sequential) total += static_cast<double>(params_.seek_penalty);
  return static_cast<Time>(total / params_.speed_factor);
}

bool Device::extends_stream(Offset offset, Offset size) {
  const auto it = std::find(cursors_.begin(), cursors_.end(), offset);
  if (it != cursors_.end()) {
    cursors_.erase(it);
    cursors_.push_back(offset + size);  // most recently used at the back
    return true;
  }
  ++stream_misses_;
  cursors_.push_back(offset + size);
  if (cursors_.size() > params_.stream_cursors) cursors_.pop_front();
  return false;
}

Time Device::submit(Time now, IoKind kind, Offset offset, Offset size) {
  if (size < 0) throw std::logic_error("Device::submit negative size");
  const bool sequential = extends_stream(offset, size);
  const Offset bps = kind == IoKind::write ? params_.write_bytes_per_second
                                           : params_.read_bytes_per_second;
  double media_ns =
      static_cast<double>(size) * 1e9 / static_cast<double>(bps);
  if (!sequential) media_ns += static_cast<double>(params_.seek_penalty);
  if (params_.jitter_sigma > 0) {
    media_ns *= jitter_.lognormal(params_.jitter_sigma);
  }
  media_ns /= params_.speed_factor;
  if (fault_ != nullptr) {
    media_ns *= fault_->slowdown(fault_server_id_, now);
  }
  if (kind == IoKind::write) {
    bytes_written_ += size;
  } else {
    bytes_read_ += size;
  }
  const Time media_done = media_.reserve(now, static_cast<Time>(media_ns));
  // Per-request latency overlaps across outstanding requests (pipelining):
  // it delays this request's completion but not the next one's media slot.
  return media_done +
         static_cast<Time>(static_cast<double>(params_.base_latency) /
                           params_.speed_factor);
}

void Device::snapshot_metrics(obs::MetricsRegistry& registry,
                              const std::string& prefix) const {
  registry.publish(prefix + ".requests", static_cast<std::int64_t>(requests()));
  registry.publish(prefix + ".busy_ns", busy_time());
  registry.publish(prefix + ".bytes_written", bytes_written_);
  registry.publish(prefix + ".bytes_read", bytes_read_);
  registry.publish(prefix + ".stream_misses",
                   static_cast<std::int64_t>(stream_misses_));
}

}  // namespace e10::storage

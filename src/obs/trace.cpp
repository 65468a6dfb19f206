#include "obs/trace.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/json.h"

namespace e10::obs {

Span::Span(Tracer* tracer, int track, std::string_view name) {
  if (tracer == nullptr || !tracer->enabled()) return;
  tracer_ = tracer;
  start_ = tracer->engine_.now();
  begin_event(*tracer, track, name);
}

Span::Span(Tracer& tracer, int rank, prof::Phase phase) {
  if (rank < 0 ||
      static_cast<std::size_t>(rank) >= tracer.phase_totals_.size()) {
    throw std::logic_error("obs::Span: rank outside the phase totals");
  }
  tracer_ = &tracer;
  total_ = &tracer.phase_totals_[static_cast<std::size_t>(rank)]
                                [static_cast<std::size_t>(phase)];
  start_ = tracer.engine_.now();
  if (tracer.enabled()) {
    begin_event(tracer, tracer.rank_track(rank), prof::phase_name(phase));
  }
}

void Span::begin_event(Tracer& tracer, int track, std::string_view name) {
  traced_ = true;
  track_ = track;
  name_ = name;
  pid_ = tracer.engine_.in_process() ? tracer.engine_.current()
                                     : sim::kNoProcess;
  ++tracer.open_spans_;
  if (pid_ != sim::kNoProcess) tracer.pid_tracks_[pid_] = track;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    end();
    tracer_ = other.tracer_;
    total_ = other.total_;
    traced_ = other.traced_;
    track_ = other.track_;
    start_ = other.start_;
    pid_ = other.pid_;
    name_ = std::move(other.name_);
    args_ = std::move(other.args_);
    other.tracer_ = nullptr;
    other.traced_ = false;
  }
  return *this;
}

void Span::arg(std::string_view key, std::int64_t value) {
  if (!traced_) return;
  args_.push_back(SpanArg{std::string(key), {}, value, /*numeric=*/true});
}

void Span::arg(std::string_view key, std::string_view value) {
  if (!traced_) return;
  args_.push_back(
      SpanArg{std::string(key), std::string(value), 0, /*numeric=*/false});
}

Time Span::end() {
  if (tracer_ == nullptr) return 0;
  const Time length = tracer_->engine_.now() - start_;
  if (total_ != nullptr) *total_ += length;
  if (traced_) {
    Tracer::Event event;
    event.phase = 'X';
    event.track = track_;
    event.ts = start_;
    event.dur = length;
    event.pid = pid_;
    event.name = std::move(name_);
    event.args = std::move(args_);
    tracer_->events_.push_back(std::move(event));
    --tracer_->open_spans_;
  }
  tracer_ = nullptr;
  traced_ = false;
  return length;
}

Tracer::Tracer(sim::Engine& engine, int ranks) : engine_(engine) {
  if (ranks < 0) throw std::logic_error("obs::Tracer: ranks < 0");
  phase_totals_.resize(static_cast<std::size_t>(ranks));
}

int Tracer::track(const std::string& name, int sort_index) {
  const auto it = track_ids_.find(name);
  if (it != track_ids_.end()) return it->second;
  const int id = static_cast<int>(tracks_.size());
  int sort = sort_index;
  if (sort < 0) {
    sort = 0;
    for (const TrackInfo& t : tracks_) sort = std::max(sort, t.sort_index + 1);
  }
  tracks_.push_back(TrackInfo{name, sort});
  track_ids_.emplace(name, id);
  return id;
}

int Tracer::rank_track(int rank) {
  const auto index = static_cast<std::size_t>(rank);
  if (index >= rank_tracks_.size()) rank_tracks_.resize(index + 1, -1);
  if (rank_tracks_[index] < 0) {
    rank_tracks_[index] = track("rank " + std::to_string(rank), rank);
  }
  return rank_tracks_[index];
}

void Tracer::counter(const std::string& name, std::int64_t value) {
  if (!enabled_) return;
  Event event;
  event.phase = 'C';
  event.track = 0;
  event.ts = engine_.now();
  event.value = value;
  event.name = name;
  events_.push_back(std::move(event));
}

void Tracer::instant(int track_id, std::string_view name) {
  if (!enabled_) return;
  Event event;
  event.phase = 'i';
  event.track = track_id;
  event.ts = engine_.now();
  event.name = std::string(name);
  events_.push_back(std::move(event));
}

void Tracer::flow(int src_track, Time src_ts, int dst_track, Time dst_ts,
                  std::uint64_t id, std::string_view name) {
  if (!enabled_) return;
  // Chrome requires the start's timestamp to be <= the finish's.
  if (dst_ts < src_ts) dst_ts = src_ts;
  Event start;
  start.phase = 's';
  start.track = src_track;
  start.ts = src_ts;
  start.flow_id = id;
  start.name = std::string(name);
  events_.push_back(std::move(start));
  Event finish;
  finish.phase = 'f';
  finish.track = dst_track;
  finish.ts = dst_ts;
  finish.flow_id = id;
  finish.name = std::string(name);
  events_.push_back(std::move(finish));
}

int Tracer::pid_track(sim::ProcessId pid) const {
  const auto it = pid_tracks_.find(pid);
  return it == pid_tracks_.end() ? -1 : it->second;
}

void Tracer::clear() {
  tracks_.clear();
  track_ids_.clear();
  rank_tracks_.clear();
  pid_tracks_.clear();
  events_.clear();
  open_spans_ = 0;
}

namespace {

/// Virtual ns -> trace "ts"/"dur" microseconds with ns resolution kept.
void append_us(std::string& out, Time ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

void append_args(std::string& out, const std::vector<SpanArg>& args) {
  out += "\"args\":{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    json_escape(args[i].key, out);
    out += "\":";
    if (args[i].numeric) {
      out += std::to_string(args[i].value);
    } else {
      out += '"';
      json_escape(args[i].text, out);
      out += '"';
    }
  }
  out += '}';
}

}  // namespace

std::string Tracer::to_json() const {
  std::string out;
  out.reserve(128 + events_.size() * 96 + tracks_.size() * 128);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  auto comma = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  comma();
  out += R"j({"ph":"M","pid":0,"tid":0,"name":"process_name",)j"
         R"j("args":{"name":"e10 collective-write pipeline (virtual time)"}})j";

  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    const std::string tid = std::to_string(i);
    comma();
    out += R"({"ph":"M","pid":0,"tid":)" + tid +
           R"(,"name":"thread_name","args":{"name":")";
    json_escape(tracks_[i].name, out);
    out += "\"}}";
    comma();
    out += R"({"ph":"M","pid":0,"tid":)" + tid +
           R"(,"name":"thread_sort_index","args":{"sort_index":)" +
           std::to_string(tracks_[i].sort_index) + "}}";
  }

  for (const Event& event : events_) {
    comma();
    out += "{\"ph\":\"";
    out += event.phase;
    out += "\",\"pid\":0,\"tid\":";
    out += std::to_string(event.track);
    out += ",\"name\":\"";
    json_escape(event.name, out);
    out += "\",\"ts\":";
    append_us(out, event.ts);
    switch (event.phase) {
      case 'X':
        out += ",\"dur\":";
        append_us(out, event.dur);
        if (!event.args.empty()) {
          out += ',';
          append_args(out, event.args);
        }
        break;
      case 'C':
        out += ",\"args\":{\"value\":";
        out += std::to_string(event.value);
        out += '}';
        break;
      case 'i':
        out += ",\"s\":\"t\"";
        break;
      case 's':
      case 'f':
        out += ",\"cat\":\"causal\",\"id\":";
        out += std::to_string(event.flow_id);
        if (event.phase == 'f') out += ",\"bp\":\"e\"";
        break;
      default:
        break;
    }
    out += '}';
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

Status Tracer::write(const std::string& path) const {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return Status::error(Errc::io_error, "trace: cannot open " + path);
  }
  const std::string body = to_json();
  file.write(body.data(), static_cast<std::streamsize>(body.size()));
  file.flush();
  if (!file) return Status::error(Errc::io_error, "trace: write failed");
  return Status::ok();
}

}  // namespace e10::obs

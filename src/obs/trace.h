// Span tracer over virtual time, emitting Chrome trace-event JSON.
//
// The paper argues with MPE phase timelines (Fig. 2): to see that a cache
// flush overlapped a compute phase you need *when*, not just totals. The
// Tracer records named, nested spans per simulated process — each MPI rank
// is one "thread" track, each cache sync thread its own track — plus
// counter samples (e.g. sync queue depth over time). The output loads
// directly in chrome://tracing or https://ui.perfetto.dev.
//
// The tracer is also the run's one record of phase intervals: a phase span
// (a rank and a prof::Phase) always adds its interval to the per-rank phase
// totals the breakdown figures and the run report are built from, and is a
// trace event only while tracing is enabled. Tracing is off by default; a
// named Span on a disabled tracer costs one branch.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "prof/phase.h"
#include "sim/engine.h"

namespace e10::obs {

class Tracer;

/// Per-rank phase totals: row r holds rank r's summed time in each phase.
using PhaseTotals = std::vector<std::array<Time, prof::kPhaseCount>>;

/// One key/value attribute attached to a span ("args" in the trace JSON).
struct SpanArg {
  std::string key;
  std::string text;        // when !numeric
  std::int64_t value = 0;  // when numeric
  bool numeric = false;
};

/// RAII span: starts at construction, ends at destruction (or end()), both
/// timestamped in virtual time. A moved-from span, and a named span on a
/// disabled tracer, are inactive and free.
class Span {
 public:
  Span() = default;
  /// Named span on `track`; inactive unless the tracer is enabled.
  Span(Tracer* tracer, int track, std::string_view name);
  /// Phase span of communicator rank `rank`: when it ends, its interval is
  /// added to the tracer's phase totals whether or not tracing is on; while
  /// tracing it is also an event named after the phase on the rank's
  /// track. Throws std::logic_error for a rank outside the totals.
  Span(Tracer& tracer, int rank, prof::Phase phase);
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  /// Attaches an attribute (no-op unless the span is traced).
  void arg(std::string_view key, std::int64_t value);
  void arg(std::string_view key, std::string_view value);

  /// Ends the span now instead of at destruction and returns its length
  /// (0 for an inactive span).
  Time end();

  bool active() const { return tracer_ != nullptr; }

 private:
  void begin_event(Tracer& tracer, int track, std::string_view name);

  Tracer* tracer_ = nullptr;  // null once ended
  Time* total_ = nullptr;     // phase spans: the rank's phase total
  bool traced_ = false;       // open and appending a trace event at end
  int track_ = 0;
  Time start_ = 0;
  sim::ProcessId pid_ = sim::kNoProcess;
  std::string name_;
  std::vector<SpanArg> args_;
};

class Tracer {
 public:
  /// One recorded trace event. Spans ('X') carry the simulated process
  /// that emitted them so the critical-path analyzer (critical_path.h) can
  /// join lanes against causal edges, which are keyed by ProcessId.
  struct Event {
    char phase = 'X';
    int track = 0;
    Time ts = 0;
    Time dur = 0;
    std::int64_t value = 0;  // counter sample
    std::uint64_t flow_id = 0;  // flow ('s'/'f') pairing id
    sim::ProcessId pid = sim::kNoProcess;
    std::string name;
    std::vector<SpanArg> args;
  };
  struct TrackInfo {
    std::string name;
    int sort_index = 0;
  };

  /// `ranks` rows of phase totals, one per rank a phase span may name.
  explicit Tracer(sim::Engine& engine, int ranks = 0);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Whether spans, counters, instants and flows are recorded as events.
  /// Phase totals are kept either way.
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// The summed interval of every ended phase span, per rank and phase.
  const PhaseTotals& phase_totals() const { return phase_totals_; }

  /// Registers (or looks up) a named track — one "thread" row in the
  /// viewer. `sort_index` orders tracks top-to-bottom; -1 appends after
  /// everything registered so far.
  int track(const std::string& name, int sort_index = -1);

  /// Cached per-rank track ("rank N", sorted by rank).
  int rank_track(int rank);

  /// Counter sample: plots `value` over virtual time as its own series.
  void counter(const std::string& name, std::int64_t value);

  /// Zero-duration marker on a track.
  void instant(int track, std::string_view name);

  /// Paired flow arrow ('s' at the source, 'f' at the destination) for one
  /// causal edge; both halves share `id` so every start has its finish.
  /// Emitted together, at ack time, so the pairing is structural.
  void flow(int src_track, Time src_ts, int dst_track, Time dst_ts,
            std::uint64_t id, std::string_view name);

  /// Track a simulated process last opened a span on (-1 = none seen);
  /// lets edge recorders draw flows between existing lanes.
  int pid_track(sim::ProcessId pid) const;

  std::size_t events() const { return events_.size(); }
  std::size_t tracks() const { return tracks_.size(); }
  /// Spans constructed but not yet ended. A clean run ends at zero; a
  /// dangling-open span (lost on an error path) never reaches the JSON, so
  /// the fault smoke asserts this instead of grepping the output.
  std::size_t open_spans() const { return open_spans_; }
  const std::vector<Event>& event_list() const { return events_; }
  const std::vector<TrackInfo>& track_list() const { return tracks_; }
  /// Drops every event and track; the phase totals stay.
  void clear();

  /// Chrome trace-event JSON: {"traceEvents": [...]} with thread-name
  /// metadata, complete ("X") spans, counter ("C") samples and instant
  /// ("i") markers. Timestamps are virtual microseconds.
  std::string to_json() const;

  Status write(const std::string& path) const;

 private:
  friend class Span;

  sim::Engine& engine_;
  bool enabled_ = false;
  std::size_t open_spans_ = 0;
  std::vector<TrackInfo> tracks_;
  std::unordered_map<std::string, int> track_ids_;
  std::vector<int> rank_tracks_;  // rank -> track id (-1 unregistered)
  std::unordered_map<sim::ProcessId, int> pid_tracks_;
  std::vector<Event> events_;
  PhaseTotals phase_totals_;  // sized once: spans hold pointers into it
};

}  // namespace e10::obs

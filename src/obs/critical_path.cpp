#include "obs/critical_path.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>

namespace e10::obs {

namespace {

using sim::EdgeKind;
using sim::ProcessId;

/// Span-name -> category table. Innermost span wins on nesting, so outer
/// workload wrappers (write_file, write_round) only absorb their own glue.
PathCategory categorize(const std::string& name) {
  if (name == "shuffle_all2all" || name == "exchange" ||
      name == "shuffle_intra" || name == "shuffle_inter") {
    return PathCategory::shuffle;
  }
  if (name == "write_contig" || name == "read_contig") {
    return PathCategory::write;
  }
  if (name == "flush_batch" || name == "flush_wait" ||
      name == "not_hidden_sync" || name == "close") {
    return PathCategory::flush;
  }
  if (name == "compute" || name == "calc") return PathCategory::compute;
  if (name == "open" || name == "offset_exchange" || name == "post_write" ||
      name == "write_round" || name == "write_file") {
    return PathCategory::coordination;
  }
  return PathCategory::other;
}

/// Flattened, innermost-wins segmentation of one process's spans. Gaps are
/// implicit (attributed as idle by attribute_range).
struct FlatSeg {
  Time begin;
  Time end;
  PathCategory category;
  const std::string* name;
};

struct Lane {
  std::vector<FlatSeg> segs;  // sorted by begin, non-overlapping
  int track = -1;
  Time last_end = 0;
};

struct LaneSpanRef {
  Time begin;
  Time end;
  const std::string* name;
};

std::vector<FlatSeg> flatten(std::vector<LaneSpanRef> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const LaneSpanRef& a, const LaneSpanRef& b) {
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.end > b.end;  // outer first at equal begin
            });
  std::vector<FlatSeg> out;
  std::vector<const LaneSpanRef*> stack;
  Time cursor = 0;
  auto emit = [&](Time b, Time e, const LaneSpanRef* s) {
    if (e <= b) return;
    out.push_back(FlatSeg{b, e, categorize(*s->name), s->name});
  };
  std::size_t i = 0;
  while (i < spans.size() || !stack.empty()) {
    const Time next_begin =
        i < spans.size() ? spans[i].begin : std::numeric_limits<Time>::max();
    if (!stack.empty() && stack.back()->end <= next_begin) {
      emit(cursor, stack.back()->end, stack.back());
      cursor = std::max(cursor, stack.back()->end);
      stack.pop_back();
    } else {
      if (!stack.empty()) emit(cursor, next_begin, stack.back());
      cursor = std::max(cursor, next_begin);
      stack.push_back(&spans[i]);
      ++i;
    }
  }
  return out;
}

struct PidEvent {  // one ack or bridge, per-pid, for the backward walk
  Time at;          // ack time / bridge done time
  bool is_bridge;
  std::size_t index;  // into recorder.acks() / recorder.bridges()
};

class Walker {
 public:
  Walker(const Tracer& tracer, const CausalRecorder& recorder,
         CriticalPathReport& report)
      : recorder_(recorder), report_(report) {
    build_lanes(tracer);
    build_events();
    build_overlays();
  }

  void run() {
    ProcessId pid = sim::kNoProcess;
    Time t = 0;
    // Ties (several ranks finishing at the same virtual time — the normal
    // case at a final join) break toward the smallest pid so the walk's
    // starting lane never depends on container iteration order.
    for (const auto& [lane_pid, lane] : lanes_) {
      if (lane.last_end > t || (lane.last_end == t && pid == sim::kNoProcess)) {
        t = lane.last_end;
        pid = lane_pid;
      }
    }
    // Job completion can also be a pure emission (no span open at the end).
    for (const auto& e : recorder_.emissions()) {
      if (e.at > t) {
        t = e.at;
        pid = e.pid;
      }
    }
    report_.total_ns = t;
    if (pid == sim::kNoProcess || t == 0) return;

    const std::size_t cap =
        recorder_.acks().size() + recorder_.bridges().size() + 16;
    std::size_t steps = 0;
    while (t > 0) {
      if (++steps > cap) {
        report_.truncated = true;
        attribute_range(pid, 0, t);
        return;
      }
      const PidEvent* binding = take_binding(pid, t);
      if (binding == nullptr) {
        attribute_range(pid, 0, t);
        return;
      }
      ++report_.hops;
      if (binding->is_bridge) {
        const CausalRecorder::Bridge& br =
            recorder_.bridges()[binding->index];
        attribute_range(pid, br.done, t);
        // The background service interval itself: write/flush machinery,
        // with lock-wait overlays carved out.
        attribute_service(pid, br);
        t = br.issue;
      } else {
        const CausalRecorder::Ack& ack = recorder_.acks()[binding->index];
        const CausalRecorder::Emission& src = recorder_.source_of(ack);
        attribute_range(pid, std::min(ack.at, t), t);
        const Time jump_at = std::min(src.at, ack.at);
        if (ack.at > jump_at) attribute_edge(pid, src, jump_at, ack.at);
        pid = src.pid;
        t = jump_at;
      }
    }
  }

 private:
  void build_lanes(const Tracer& tracer) {
    std::map<ProcessId, std::vector<LaneSpanRef>> spans;
    for (const Tracer::Event& e : tracer.event_list()) {
      if (e.phase != 'X' || e.pid == sim::kNoProcess) continue;
      spans[e.pid].push_back(LaneSpanRef{e.ts, e.ts + e.dur, &e.name});
      Lane& lane = lanes_[e.pid];
      lane.track = e.track;
      lane.last_end = std::max(lane.last_end, e.ts + e.dur);
    }
    for (auto& [pid, list] : spans) lanes_[pid].segs = flatten(std::move(list));
    tracks_ = &tracer.track_list();
  }

  void build_events() {
    for (std::size_t i = 0; i < recorder_.acks().size(); ++i) {
      events_[recorder_.acks()[i].pid].push_back(
          PidEvent{recorder_.acks()[i].at, false, i});
    }
    for (std::size_t i = 0; i < recorder_.bridges().size(); ++i) {
      events_[recorder_.bridges()[i].pid].push_back(
          PidEvent{recorder_.bridges()[i].done, true, i});
    }
    for (auto& [pid, list] : events_) {
      std::sort(list.begin(), list.end(),
                [](const PidEvent& a, const PidEvent& b) {
                  return a.at < b.at;
                });
      cursors_[pid] = list.size();
    }
  }

  void build_overlays() {
    for (const CausalRecorder::Overlay& o : recorder_.overlays()) {
      overlays_[o.pid].push_back(o);
    }
    for (auto& [pid, list] : overlays_) {
      std::sort(list.begin(), list.end(),
                [](const CausalRecorder::Overlay& a,
                   const CausalRecorder::Overlay& b) {
                  return a.begin < b.begin;
                });
    }
  }

  /// Latest unconsumed ack/bridge for pid at or before t; consumes it.
  /// Per-lane walk positions only move backward, so a cursor suffices.
  const PidEvent* take_binding(ProcessId pid, Time t) {
    const auto it = events_.find(pid);
    if (it == events_.end()) return nullptr;
    std::vector<PidEvent>& list = it->second;
    std::size_t& cursor = cursors_[pid];
    while (cursor > 0 && list[cursor - 1].at > t) --cursor;
    if (cursor == 0) return nullptr;
    return &list[--cursor];
  }

  void add(PathCategory c, Time ns) {
    report_.category_ns[static_cast<std::size_t>(c)] += ns;
  }

  /// Lock-wait overlay time for pid within [b, e).
  Time overlay_within(ProcessId pid, Time b, Time e) {
    const auto it = overlays_.find(pid);
    if (it == overlays_.end()) return 0;
    Time covered = 0;
    for (const CausalRecorder::Overlay& o : it->second) {
      if (o.begin >= e) break;
      covered += std::max<Time>(0, std::min(o.end, e) - std::max(o.begin, b));
    }
    return covered;
  }

  /// Splits [a, t) along pid's flattened spans; uncovered time is idle;
  /// lock-wait overlays inside write/flush segments are re-labelled.
  void attribute_range(ProcessId pid, Time a, Time t) {
    if (t <= a) return;
    const auto it = lanes_.find(pid);
    const std::string* label = nullptr;
    std::array<Time, kPathCategoryCount> local{};
    Time cursor = a;
    if (it != lanes_.end()) {
      const std::vector<FlatSeg>& segs = it->second.segs;
      auto seg = std::lower_bound(
          segs.begin(), segs.end(), a,
          [](const FlatSeg& s, Time value) { return s.end <= value; });
      for (; seg != segs.end() && seg->begin < t; ++seg) {
        const Time b = std::max(cursor, seg->begin);
        const Time e = std::min(t, seg->end);
        if (seg->begin > cursor) {
          local[static_cast<std::size_t>(PathCategory::idle)] +=
              seg->begin - cursor;
        }
        if (e > b) {
          PathCategory cat = seg->category;
          Time span_ns = e - b;
          if (cat == PathCategory::write || cat == PathCategory::flush) {
            const Time locked = overlay_within(pid, b, e);
            local[static_cast<std::size_t>(PathCategory::lock_wait)] += locked;
            span_ns -= locked;
          }
          local[static_cast<std::size_t>(cat)] += span_ns;
          label = seg->name;
        }
        cursor = std::max(cursor, e);
      }
    }
    if (cursor < t) {
      local[static_cast<std::size_t>(PathCategory::idle)] += t - cursor;
    }
    PathCategory top = PathCategory::idle;
    for (std::size_t c = 0; c < kPathCategoryCount; ++c) {
      report_.category_ns[c] += local[c];
      if (local[c] > local[static_cast<std::size_t>(top)]) {
        top = static_cast<PathCategory>(c);
      }
    }
    record_segment(pid, a, t, top, label != nullptr ? *label : std::string());
  }

  /// In-flight edge latency between an emission and the wake-up it gated.
  void attribute_edge(ProcessId pid, const CausalRecorder::Emission& src,
                      Time from, Time to) {
    const Time gap = to - from;
    PathCategory cat = PathCategory::coordination;
    switch (src.kind) {
      case EdgeKind::message: {
        const Time queued = std::min(src.contended_ns, gap);
        add(PathCategory::nic_contention, queued);
        add(PathCategory::shuffle, gap - queued);
        record_segment(pid, from, to, PathCategory::shuffle,
                       sim::edge_kind_name(src.kind));
        return;
      }
      case EdgeKind::sync_queue:
      case EdgeKind::grequest:
      case EdgeKind::batch_done:
        cat = PathCategory::flush;
        break;
      case EdgeKind::write_join:
        cat = PathCategory::write;
        break;
      case EdgeKind::lock_wait:
        cat = PathCategory::lock_wait;
        break;
      case EdgeKind::collective:
      case EdgeKind::process:
        cat = PathCategory::coordination;
        break;
    }
    add(cat, gap);
    record_segment(pid, from, to, cat, sim::edge_kind_name(src.kind));
  }

  /// Asynchronous service interval a stalled join waited out.
  void attribute_service(ProcessId pid, const CausalRecorder::Bridge& br) {
    const PathCategory cat = br.kind == EdgeKind::write_join
                                 ? PathCategory::write
                                 : PathCategory::flush;
    const Time locked = overlay_within(pid, br.issue, br.done);
    add(PathCategory::lock_wait, locked);
    add(cat, br.done - br.issue - locked);
    record_segment(pid, br.issue, br.done, cat, sim::edge_kind_name(br.kind));
  }

  void record_segment(ProcessId pid, Time begin, Time end, PathCategory cat,
                      std::string label) {
    if (end <= begin) return;
    if (report_.segments.size() >= CriticalPathReport::kMaxSegments) return;
    PathSegment seg;
    seg.pid = pid;
    const auto it = lanes_.find(pid);
    if (it != lanes_.end() && it->second.track >= 0 && tracks_ != nullptr &&
        static_cast<std::size_t>(it->second.track) < tracks_->size()) {
      seg.process = (*tracks_)[static_cast<std::size_t>(it->second.track)].name;
    }
    seg.begin = begin;
    seg.end = end;
    seg.category = cat;
    seg.label = std::move(label);
    report_.segments.push_back(std::move(seg));
  }

  const CausalRecorder& recorder_;
  CriticalPathReport& report_;
  // Ordered maps: the walker iterates these while choosing its starting
  // lane and building per-pid state, and report content must never depend
  // on hash-iteration order (e10_lint unordered-iteration).
  std::map<ProcessId, Lane> lanes_;
  std::map<ProcessId, std::vector<PidEvent>> events_;
  std::map<ProcessId, std::size_t> cursors_;
  std::map<ProcessId, std::vector<CausalRecorder::Overlay>> overlays_;
  const std::vector<Tracer::TrackInfo>* tracks_ = nullptr;
};

/// Rank index from a "rank N" track name; -1 otherwise.
int rank_of_track(const std::string& name) {
  if (name.rfind("rank ", 0) != 0) return -1;
  int rank = 0;
  for (std::size_t i = 5; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    rank = rank * 10 + (name[i] - '0');
  }
  return name.size() > 5 ? rank : -1;
}

void fill_rank_skew(const Tracer& tracer, CriticalPathReport& report) {
  std::map<int, Time> ends;  // track -> last span end
  for (const Tracer::Event& e : tracer.event_list()) {
    if (e.phase != 'X') continue;
    Time& end = ends[e.track];
    end = std::max(end, e.ts + e.dur);
  }
  std::vector<Time> rank_ends;
  const auto& tracks = tracer.track_list();
  for (const auto& [track, end] : ends) {
    if (static_cast<std::size_t>(track) >= tracks.size()) continue;
    if (rank_of_track(tracks[static_cast<std::size_t>(track)].name) >= 0) {
      rank_ends.push_back(end);
    }
  }
  if (rank_ends.empty()) return;
  std::sort(rank_ends.begin(), rank_ends.end());
  report.rank_end_min_ns = rank_ends.front();
  report.rank_end_max_ns = rank_ends.back();
  report.rank_end_p50_ns = rank_ends[(rank_ends.size() - 1) / 2];
  if (rank_ends.size() > 1 && rank_ends.back() > 0) {
    report.rank_skew =
        static_cast<double>(rank_ends.back() - rank_ends.front()) /
        static_cast<double>(rank_ends.back());
  }
}

double seconds(Time ns) { return static_cast<double>(ns) / 1e9; }

}  // namespace

const char* path_category_name(PathCategory category) {
  switch (category) {
    case PathCategory::shuffle: return "shuffle";
    case PathCategory::write: return "write";
    case PathCategory::flush: return "flush";
    case PathCategory::lock_wait: return "lock_wait";
    case PathCategory::nic_contention: return "nic_contention";
    case PathCategory::compute: return "compute";
    case PathCategory::coordination: return "coordination";
    case PathCategory::idle: return "idle";
    case PathCategory::other: return "other";
    case PathCategory::count: break;
  }
  return "?";
}

CriticalPathReport analyze_critical_path(const Tracer& tracer,
                                         const CausalRecorder& recorder) {
  CriticalPathReport report;
  Walker walker(tracer, recorder, report);
  walker.run();
  Time named = 0;
  for (std::size_t c = 0; c < kPathCategoryCount; ++c) {
    if (c != static_cast<std::size_t>(PathCategory::other)) {
      named += report.category_ns[c];
    }
    if (report.category_ns[c] >
        report.category_ns[static_cast<std::size_t>(report.bottleneck)]) {
      report.bottleneck = static_cast<PathCategory>(c);
    }
  }
  report.attributed_fraction =
      report.total_ns > 0
          ? static_cast<double>(named) / static_cast<double>(report.total_ns)
          : 1.0;
  fill_rank_skew(tracer, report);
  return report;
}

Json critical_path_json(const CriticalPathReport& report) {
  Json out = Json::object();
  out.set("total_s", Json::number(seconds(report.total_ns)));
  out.set("bottleneck", Json::str(path_category_name(report.bottleneck)));
  out.set("attributed_fraction", Json::number(report.attributed_fraction));
  out.set("hops", Json::integer(report.hops));
  out.set("truncated", Json::boolean(report.truncated));
  Json categories = Json::object();
  for (std::size_t c = 0; c < kPathCategoryCount; ++c) {
    Json entry = Json::object();
    entry.set("s", Json::number(seconds(report.category_ns[c])));
    entry.set("fraction",
              Json::number(report.fraction(static_cast<PathCategory>(c))));
    categories.set(path_category_name(static_cast<PathCategory>(c)),
                   std::move(entry));
  }
  out.set("categories", std::move(categories));
  Json skew = Json::object();
  skew.set("min_s", Json::number(seconds(report.rank_end_min_ns)));
  skew.set("p50_s", Json::number(seconds(report.rank_end_p50_ns)));
  skew.set("max_s", Json::number(seconds(report.rank_end_max_ns)));
  skew.set("skew", Json::number(report.rank_skew));
  out.set("rank_skew", std::move(skew));
  Json segments = Json::array();
  for (const PathSegment& seg : report.segments) {
    Json row = Json::object();
    row.set("process", Json::str(seg.process));
    row.set("begin_s", Json::number(seconds(seg.begin)));
    row.set("end_s", Json::number(seconds(seg.end)));
    row.set("category", Json::str(path_category_name(seg.category)));
    if (!seg.label.empty()) row.set("label", Json::str(seg.label));
    segments.push(std::move(row));
  }
  out.set("segments", std::move(segments));
  return out;
}

std::string critical_path_table(const CriticalPathReport& report) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "critical path: %.6f s end-to-end, bottleneck=%s, "
                "%d hops, %.1f%% attributed\n",
                seconds(report.total_ns),
                path_category_name(report.bottleneck), report.hops,
                report.attributed_fraction * 100.0);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  %-16s %12s %8s\n", "category",
                "seconds", "share");
  out += buf;
  for (std::size_t c = 0; c < kPathCategoryCount; ++c) {
    const auto cat = static_cast<PathCategory>(c);
    if (report.category_ns[c] == 0) continue;
    std::snprintf(buf, sizeof(buf), "  %-16s %12.6f %7.1f%%\n",
                  path_category_name(cat), seconds(report.category_ns[c]),
                  report.fraction(cat) * 100.0);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  rank completion: min=%.6f p50=%.6f max=%.6f s "
                "(skew %.1f%%)\n",
                seconds(report.rank_end_min_ns),
                seconds(report.rank_end_p50_ns),
                seconds(report.rank_end_max_ns), report.rank_skew * 100.0);
  out += buf;
  return out;
}

}  // namespace e10::obs

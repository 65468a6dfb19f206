#include "common/dataview.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace e10 {

std::byte DataView::Segment::at(Offset i) const {
  if (buffer != nullptr) {
    return (*buffer)[static_cast<std::size_t>(offset + i)];
  }
  return DataView::pattern_byte(seed, origin + i);
}

bool DataView::Segment::continued_by(const Segment& next) const {
  if (buffer == nullptr) {
    return next.buffer == nullptr && seed == next.seed &&
           origin + length == next.origin;
  }
  return buffer == next.buffer && offset + length == next.offset;
}

std::span<const DataView::Segment> DataView::segments(
    Segment& scratch) const {
  if (!inline_run()) return segments_;
  scratch.seed = seed_;
  scratch.origin = origin_;
  scratch.length = length_;
  return {&scratch, 1};
}

void DataView::append(const Segment& seg) {
  if (length_ == 0 && seg.buffer == nullptr) {
    seed_ = seg.seed;
    origin_ = seg.origin;
    length_ = seg.length;
    return;
  }
  if (inline_run()) {
    Segment run;
    run.seed = seed_;
    run.origin = origin_;
    run.length = length_;
    if (run.continued_by(seg)) {
      length_ += seg.length;
      return;
    }
    segments_.push_back(run);
  } else if (!segments_.empty() && segments_.back().continued_by(seg)) {
    segments_.back().length += seg.length;
    length_ += seg.length;
    return;
  }
  segments_.push_back(seg);
  length_ += seg.length;
}

DataView DataView::real(std::vector<std::byte> bytes) {
  auto shared =
      std::make_shared<const std::vector<std::byte>>(std::move(bytes));
  const Offset len = static_cast<Offset>(shared->size());
  return real_slice(std::move(shared), 0, len);
}

DataView DataView::real_slice(
    std::shared_ptr<const std::vector<std::byte>> buffer, Offset offset,
    Offset length) {
  if (offset < 0 || length < 0 ||
      offset + length > static_cast<Offset>(buffer->size())) {
    throw std::out_of_range("DataView::real_slice out of range");
  }
  DataView v;
  if (length > 0) {
    Segment seg;
    seg.buffer = std::move(buffer);
    seg.offset = offset;
    seg.length = length;
    v.append(seg);
  }
  return v;
}

DataView DataView::synthetic(std::uint64_t seed, Offset origin,
                             Offset length) {
  if (length < 0) {
    throw std::out_of_range("DataView::synthetic negative length");
  }
  DataView v;
  v.seed_ = seed;
  v.origin_ = origin;
  v.length_ = length;
  return v;
}

DataView DataView::concat(const std::vector<DataView>& views) {
  // Adjacent continuations merge (common when a strided pattern is
  // reassembled in file order).
  DataView out;
  for (const DataView& v : views) {
    Segment scratch;
    for (const Segment& seg : v.segments(scratch)) out.append(seg);
  }
  return out;
}

std::byte DataView::pattern_byte(std::uint64_t seed, Offset position) {
  // SplitMix64 finalizer over (seed, position): cheap, stateless, and has
  // no measurable bias for the byte-compare checks the tests perform.
  std::uint64_t x =
      seed ^ (static_cast<std::uint64_t>(position) * 0x9E3779B97F4A7C15ULL);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<std::byte>(x & 0xFF);
}

bool DataView::is_real() const {
  return !inline_run() &&
         std::all_of(segments_.begin(), segments_.end(),
                     [](const Segment& s) { return s.buffer != nullptr; });
}

std::byte DataView::byte_at(Offset i) const {
  if (i < 0 || i >= length_) throw std::out_of_range("DataView::byte_at");
  Segment scratch;
  for (const Segment& seg : segments(scratch)) {
    if (i < seg.length) return seg.at(i);
    i -= seg.length;
  }
  throw std::logic_error("DataView: inconsistent rope");
}

DataView DataView::slice(Offset offset, Offset length) const {
  if (offset < 0 || length < 0 || offset + length > length_) {
    throw std::out_of_range("DataView::slice out of range");
  }
  if (inline_run()) return synthetic(seed_, origin_ + offset, length);
  DataView out;
  Offset skip = offset;
  Offset remaining = length;
  for (const Segment& seg : segments_) {
    if (remaining == 0) break;
    if (skip >= seg.length) {
      skip -= seg.length;
      continue;
    }
    Segment piece = seg;
    if (piece.buffer != nullptr) {
      piece.offset += skip;
    } else {
      piece.origin += skip;
    }
    piece.length = std::min(remaining, seg.length - skip);
    out.append(piece);
    remaining -= piece.length;
    skip = 0;
  }
  return out;
}

bool DataView::extend_if_continued(const DataView& next) {
  if (segment_count() != 1 || next.segment_count() != 1) return false;
  Segment mine_scratch;
  Segment next_scratch;
  const Segment& after = next.segments(next_scratch).front();
  if (!segments(mine_scratch).front().continued_by(after)) return false;
  append(after);
  return true;
}

std::vector<std::byte> DataView::materialize() const {
  std::vector<std::byte> out(static_cast<std::size_t>(length_));
  Offset pos = 0;
  Segment scratch;
  for (const Segment& seg : segments(scratch)) {
    if (seg.buffer != nullptr) {
      std::memcpy(out.data() + pos, seg.buffer->data() + seg.offset,
                  static_cast<std::size_t>(seg.length));
    } else {
      for (Offset i = 0; i < seg.length; ++i) {
        out[static_cast<std::size_t>(pos + i)] =
            pattern_byte(seg.seed, seg.origin + i);
      }
    }
    pos += seg.length;
  }
  return out;
}

const std::byte* DataView::data() const {
  if (segments_.size() != 1 || segments_[0].buffer == nullptr) return nullptr;
  return segments_[0].buffer->data() + segments_[0].offset;
}

std::uint64_t DataView::seed() const {
  if (!inline_run()) {
    throw std::logic_error("DataView::seed: not a single synthetic segment");
  }
  return seed_;
}

Offset DataView::origin() const {
  if (!inline_run()) {
    throw std::logic_error("DataView::origin: not a single synthetic segment");
  }
  return origin_;
}

void ByteStore::write(Offset offset, const DataView& view) {
  if (view.empty()) return;
  // In-order appends (offset at or past everything written so far) keep
  // the log sorted and non-overlapping; anything else defers shadowing
  // resolution to the next read, or to the write that doubles the log.
  if (!dirty_ && !segments_.empty() && offset < max_end_) {
    dirty_ = true;
    compact_at_ = std::max(kCompactFloor, 2 * segments_.size());
  }
  segments_.push_back(Stored{offset, view, next_seq_++});
  max_end_ = std::max(max_end_, offset + view.size());
  if (dirty_ && segments_.size() >= compact_at_) consolidate();
}

void ByteStore::consolidate() const {
  if (!dirty_) return;
  std::sort(segments_.begin(), segments_.end(),
            [](const Stored& a, const Stored& b) {
              return a.offset != b.offset ? a.offset < b.offset
                                          : a.seq < b.seq;
            });

  // Sweep left to right. `active` is a max-heap (by seq) of the writes
  // covering the cursor; the top is the visible one — the latest write
  // wins, exactly the shadowing rule the eager map applied per write. A
  // visible run is emitted only when the visible write changes, and joins
  // the previous run when it starts at its end and continues its bytes.
  // The joined entry keeps the larger seq: entries no longer overlap, so
  // a seq only has to stay below every later write's.
  const auto by_seq = [](const Stored* a, const Stored* b) {
    return a->seq < b->seq;
  };
  const auto end_of = [](const Stored* s) {
    return s->offset + s->view.size();
  };
  std::vector<Stored> out;
  out.reserve(segments_.size());
  std::vector<const Stored*> active;
  const Stored* visible = nullptr;
  Offset vis_start = 0;
  Offset cursor = 0;
  const auto emit = [&](Offset upto) {
    if (visible == nullptr || upto <= vis_start) return;
    DataView run =
        visible->view.slice(vis_start - visible->offset, upto - vis_start);
    if (!out.empty()) {
      Stored& last = out.back();
      if (last.offset + last.view.size() == vis_start &&
          last.view.extend_if_continued(run)) {
        last.seq = std::max(last.seq, visible->seq);
        return;
      }
    }
    out.push_back(Stored{vis_start, std::move(run), visible->seq});
  };
  std::size_t i = 0;
  const std::size_t n = segments_.size();
  while (i < n || !active.empty()) {
    while (!active.empty() && end_of(active.front()) <= cursor) {
      std::pop_heap(active.begin(), active.end(), by_seq);
      active.pop_back();
    }
    if (active.empty()) {
      if (i >= n) break;
      emit(cursor);
      visible = nullptr;
      cursor = std::max(cursor, segments_[i].offset);  // skip unwritten gap
    }
    while (i < n && segments_[i].offset <= cursor) {
      active.push_back(&segments_[i]);
      std::push_heap(active.begin(), active.end(), by_seq);
      ++i;
    }
    while (!active.empty() && end_of(active.front()) <= cursor) {
      std::pop_heap(active.begin(), active.end(), by_seq);
      active.pop_back();
    }
    if (active.empty()) continue;
    const Stored* top = active.front();
    if (top != visible) {
      emit(cursor);
      visible = top;
      vis_start = cursor;
    }
    Offset next = end_of(top);
    if (i < n) next = std::min(next, segments_[i].offset);
    cursor = next;
  }
  emit(cursor);
  segments_ = std::move(out);
  dirty_ = false;
}

DataView ByteStore::read(Offset offset, Offset length) const {
  if (length <= 0) return DataView();
  consolidate();
  std::vector<DataView> parts;
  Offset cursor = offset;
  const Offset end = offset + length;
  auto it = std::lower_bound(
      segments_.begin(), segments_.end(), offset,
      [](const Stored& s, Offset o) { return s.offset < o; });
  if (it != segments_.begin()) {
    auto prev = std::prev(it);
    if (prev->offset + prev->view.size() > offset) it = prev;
  }
  for (; it != segments_.end() && it->offset < end; ++it) {
    const Offset start = it->offset;
    const Offset seg_end = start + it->view.size();
    if (seg_end <= cursor) continue;
    if (start > cursor) {
      // Unwritten gap reads as zeros.
      parts.push_back(DataView::real(std::vector<std::byte>(
          static_cast<std::size_t>(start - cursor), std::byte{0})));
      cursor = start;
    }
    const Offset lo = std::max(start, cursor);
    const Offset hi = std::min(seg_end, end);
    parts.push_back(it->view.slice(lo - start, hi - lo));
    cursor = hi;
  }
  if (cursor < end) {
    parts.push_back(DataView::real(std::vector<std::byte>(
        static_cast<std::size_t>(end - cursor), std::byte{0})));
  }
  if (parts.size() == 1) return parts[0];
  return DataView::concat(parts);
}

std::byte ByteStore::byte_at(Offset pos) const {
  consolidate();
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), pos,
      [](Offset o, const Stored& s) { return o < s.offset; });
  if (it == segments_.begin()) return std::byte{0};
  --it;
  if (pos < it->offset + it->view.size()) {
    return it->view.byte_at(pos - it->offset);
  }
  return std::byte{0};
}


}  // namespace e10

#include "common/dataview.h"

#include <algorithm>
#include <array>
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
  out.append_slice(*this, offset, length);
  return out;
}

void DataView::append_slice(const DataView& from, Offset offset,
                            Offset length) {
  Offset skip = offset;
  Offset remaining = length;
  Segment scratch;
  for (const Segment& seg : from.segments(scratch)) {
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
    append(piece);
    remaining -= piece.length;
    skip = 0;
  }
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
  // covering the cursor, each with its end; the top is the visible one —
  // the latest write wins, exactly the shadowing rule the eager map applied
  // per write. A visible run is emitted only when the visible write
  // changes, and joins the previous run when it starts at its end and
  // continues its bytes. A write visible over its whole extent moves its
  // view out rather than slicing it, which would copy a rope's segments;
  // the heap keeps the ends, so no moved-from view is read. The joined
  // entry keeps the larger seq: entries no longer overlap, so a seq only
  // has to stay below every later write's.
  struct Active {
    Stored* write;
    Offset end;
  };
  const auto by_seq = [](const Active& a, const Active& b) {
    return a.write->seq < b.write->seq;
  };
  std::vector<Stored> out;
  out.reserve(segments_.size());
  std::vector<Active> active;
  Stored* visible = nullptr;
  Offset vis_start = 0;
  Offset vis_end = 0;
  Offset cursor = 0;
  const auto emit = [&](Offset upto) {
    if (visible == nullptr || upto <= vis_start) return;
    DataView run =
        vis_start == visible->offset && upto == vis_end
            ? std::move(visible->view)
            : visible->view.slice(vis_start - visible->offset,
                                  upto - vis_start);
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
    while (!active.empty() && active.front().end <= cursor) {
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
      Stored& write = segments_[i];
      active.push_back(Active{&write, write.offset + write.view.size()});
      std::push_heap(active.begin(), active.end(), by_seq);
      ++i;
    }
    while (!active.empty() && active.front().end <= cursor) {
      std::pop_heap(active.begin(), active.end(), by_seq);
      active.pop_back();
    }
    if (active.empty()) continue;
    const Active top = active.front();
    if (top.write != visible) {
      emit(cursor);
      visible = top.write;
      vis_start = cursor;
      vis_end = top.end;
    }
    Offset next = top.end;
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
  // The covered slices append straight into the result, which merges
  // continuing ones as DataView::concat would.
  DataView out;
  const auto append_zeros = [&out](Offset count) {
    const DataView zeros = DataView::real(
        std::vector<std::byte>(static_cast<std::size_t>(count), std::byte{0}));
    out.append_slice(zeros, 0, count);
  };
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
      append_zeros(start - cursor);  // an unwritten gap reads as zeros
      cursor = start;
    }
    const Offset lo = std::max(start, cursor);
    const Offset hi = std::min(seg_end, end);
    out.append_slice(it->view, lo - start, hi - lo);
    cursor = hi;
  }
  if (cursor < end) append_zeros(end - cursor);
  return out;
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

namespace {

/// Hashes a file's content fed in ascending offset order, as synthetic
/// pieces and real pieces. Continuing synthetic pieces join into maximal
/// runs, each hashed once as (offset, length, seed, origin − offset); real
/// bytes are hashed as the nonzero 64-bit words of the file they fall in,
/// so a hole and zero bytes add nothing and how the bytes were cut does not
/// matter. Each field goes to a lane of its own, four independent chains
/// whose steps the CPU overlaps where one chain would wait on each; a real
/// word feeds the first two. A run's offset has the top bit clear and a
/// real word's has it set, so the lanes spell one content only.
class ContentHasher {
 public:
  void synthetic(Offset at, std::uint64_t seed, Offset origin, Offset length) {
    const Offset delta = origin - at;
    if (run_length_ > 0 && run_start_ + run_length_ == at &&
        run_seed_ == seed && run_delta_ == delta) {
      run_length_ += length;
      return;
    }
    close_run();
    run_start_ = at;
    run_length_ = length;
    run_seed_ = seed;
    run_delta_ = delta;
  }

  void real(Offset at, const std::byte* bytes, Offset length) {
    const Offset end = at + length;
    for (Offset pos = at; pos < end;) {
      const Offset word_at = pos - pos % 8;
      const Offset upto = std::min(end, word_at + 8);
      std::uint64_t bits = 0;
      for (; pos < upto; ++pos) {
        bits |= static_cast<std::uint64_t>(bytes[pos - at]) << (8 * (pos % 8));
      }
      if (bits == 0) continue;
      if (word_ != 0 && word_at_ != word_at) close_word();
      word_at_ = word_at;
      word_ |= bits;
    }
  }

  std::uint64_t finish(Offset extent_end) {
    close_run();
    close_word();
    std::uint64_t hash = step(0, static_cast<std::uint64_t>(extent_end));
    for (const std::uint64_t lane : lanes_) hash = step(hash, lane);
    return hash;
  }

 private:
  static constexpr std::uint64_t kRealWord = 1ULL << 63;

  /// One avalanching step per word: the SplitMix64 finalizer.
  static std::uint64_t step(std::uint64_t lane, std::uint64_t value) {
    std::uint64_t x = (lane ^ value) + 0x9E3779B97F4A7C15ULL;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

  void close_run() {
    if (run_length_ == 0) return;
    lanes_[0] = step(lanes_[0], static_cast<std::uint64_t>(run_start_));
    lanes_[1] = step(lanes_[1], static_cast<std::uint64_t>(run_length_));
    lanes_[2] = step(lanes_[2], run_seed_);
    lanes_[3] = step(lanes_[3], static_cast<std::uint64_t>(run_delta_));
    run_length_ = 0;
  }

  void close_word() {
    if (word_ == 0) return;
    lanes_[0] =
        step(lanes_[0], static_cast<std::uint64_t>(word_at_) | kRealWord);
    lanes_[1] = step(lanes_[1], word_);
    word_ = 0;
  }

  std::array<std::uint64_t, 4> lanes_ = {1, 2, 3, 4};  // distinct starts
  Offset run_start_ = 0;  // the open synthetic run; none while length is 0
  Offset run_length_ = 0;
  std::uint64_t run_seed_ = 0;
  Offset run_delta_ = 0;
  Offset word_at_ = 0;  // the open real word; none while it is 0
  std::uint64_t word_ = 0;
};

}  // namespace

std::uint64_t ByteStore::content_hash() const {
  consolidate();
  ContentHasher hasher;
  for (const Stored& stored : segments_) {
    Offset at = stored.offset;
    DataView::Segment scratch;
    for (const DataView::Segment& seg : stored.view.segments(scratch)) {
      if (seg.buffer == nullptr) {
        hasher.synthetic(at, seg.seed, seg.origin, seg.length);
      } else {
        hasher.real(at, seg.buffer->data() + seg.offset, seg.length);
      }
      at += seg.length;
    }
  }
  return hasher.finish(max_end_);
}


}  // namespace e10

// Payload representation for simulated I/O.
//
// A DataView is a contiguous run of bytes travelling through the stack
// (user buffer -> shuffle message -> collective buffer -> cache -> PFS).
// Internally it is a rope of segments, each either *real* (a slice of a
// shared byte buffer; used by tests and examples, which verify byte-exact
// file content) or *synthetic* (a deterministic pseudo-random pattern
// identified by (seed, origin); used by the benchmarks, which run at the
// paper's 32 GiB scale without allocating payload memory). The rope makes
// concatenation O(segments) — aggregators coalesce many shuffle pieces into
// one contiguous collective-buffer write without copying. A view that is a
// single synthetic run, the benchmarks' common case, holds it inline and
// never touches the heap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/units.h"

namespace e10 {

class DataView {
 public:
  /// Empty view.
  DataView() = default;

  /// A real view owning (sharing) the given bytes.
  static DataView real(std::vector<std::byte> bytes);

  /// A real view sharing `buffer[offset, offset+length)`.
  static DataView real_slice(
      std::shared_ptr<const std::vector<std::byte>> buffer, Offset offset,
      Offset length);

  /// A synthetic view: byte i has value pattern_byte(seed, origin + i).
  static DataView synthetic(std::uint64_t seed, Offset origin, Offset length);

  /// Concatenation of `views` in order; shares all underlying storage.
  static DataView concat(const std::vector<DataView>& views);

  Offset size() const { return length_; }
  bool empty() const { return length_ == 0; }

  /// True if every byte is backed by real storage.
  bool is_real() const;

  /// Number of rope segments (diagnostics/tests); an inline run counts as
  /// one.
  std::size_t segment_count() const {
    return inline_run() ? 1 : segments_.size();
  }

  /// Value of byte `i` (0 <= i < size()), regardless of representation.
  std::byte byte_at(Offset i) const;

  /// Sub-view [offset, offset+length) of this view.
  DataView slice(Offset offset, Offset length) const;

  /// Materializes the view into a fresh byte vector (synthetic segments are
  /// expanded from their pattern).
  std::vector<std::byte> materialize() const;

  /// Pointer to the bytes when the view is one real segment; nullptr
  /// otherwise.
  const std::byte* data() const;

  /// For single-synthetic-segment views: the pattern identity.
  std::uint64_t seed() const;
  Offset origin() const;

  /// The deterministic pattern used by synthetic segments; exposed so tests
  /// can compute expected bytes.
  static std::byte pattern_byte(std::uint64_t seed, Offset position);

 private:
  struct Segment {
    std::shared_ptr<const std::vector<std::byte>> buffer;  // null => synthetic
    Offset offset = 0;         // into buffer (real segments)
    std::uint64_t seed = 0;    // synthetic segments
    Offset origin = 0;
    Offset length = 0;

    std::byte at(Offset i) const;
    /// True when `next` continues this segment's bytes, so the two can be
    /// one segment.
    bool continued_by(const Segment& next) const;
  };

  /// True when the view is one synthetic run held inline.
  bool inline_run() const { return segments_.empty() && length_ > 0; }
  /// The rope's segments; an inline run is presented as one segment built
  /// in `scratch`.
  std::span<const Segment> segments(Segment& scratch) const;
  /// Appends a non-empty segment, merging it into the last one when it
  /// continues it; a lone synthetic run stays inline.
  void append(const Segment& seg);

  // Either one synthetic run inline (segments_ empty; seed_, origin_ and
  // length_ describe it) or a rope of real and/or several runs in
  // segments_ (seed_ and origin_ unused). An empty view has neither.
  std::vector<Segment> segments_;
  std::uint64_t seed_ = 0;
  Offset origin_ = 0;
  Offset length_ = 0;
};

/// A sparse byte store: the in-memory model of one file's content, shared by
/// the PFS and local-FS simulators and by the reference model in tests.
///
/// Log-structured flat storage: a write appends to a plain vector in O(1).
/// Appends that extend the file in offset order (the cache data file, the
/// journals, most server-side streams) keep the vector sorted and
/// non-overlapping; an out-of-order or overlapping write just marks the
/// store dirty, and the first subsequent read runs one O(k log k) sweep
/// that sorts the log and resolves shadowing (later writes win) into
/// non-overlapping segments. This replaced a std::map keyed by offset: the
/// interleaved aggregator flush pattern made per-write tree surgery — and,
/// worse, positional inserts in a naive sorted vector — the top cost of
/// the whole write benchmark, while the log append is free and the sweep
/// runs once per write burst.
class ByteStore {
 public:
  /// Writes `view` at `offset`, replacing anything underneath.
  void write(Offset offset, const DataView& view);

  /// Reads [offset, offset+length). Unwritten gaps read as zero bytes.
  DataView read(Offset offset, Offset length) const;

  /// Value of the byte at `pos` (0 for unwritten positions).
  std::byte byte_at(Offset pos) const;

  /// Highest written offset + 1 (the file size if never truncated larger).
  Offset extent_end() const { return max_end_; }

  /// Total number of distinct stored segments (for tests).
  std::size_t segment_count() const {
    consolidate();
    return segments_.size();
  }

  void clear() {
    segments_.clear();
    dirty_ = false;
    max_end_ = 0;
    next_seq_ = 0;
  }

 private:
  struct Stored {
    Offset offset = 0;
    DataView view;
    std::uint64_t seq = 0;  // insertion order; higher shadows lower
  };

  /// Sorts the write log and resolves shadowing into non-overlapping
  /// segments (ascending offset). No-op when the store is clean.
  void consolidate() const;

  mutable std::vector<Stored> segments_;
  mutable bool dirty_ = false;
  Offset max_end_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace e10

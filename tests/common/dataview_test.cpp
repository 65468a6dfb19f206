#include "common/dataview.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace e10 {
namespace {

std::vector<std::byte> bytes_of(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST(DataView, RealBasics) {
  const DataView v = DataView::real(bytes_of({1, 2, 3, 4}));
  EXPECT_TRUE(v.is_real());
  EXPECT_EQ(v.size(), 4);
  EXPECT_EQ(v.byte_at(0), std::byte{1});
  EXPECT_EQ(v.byte_at(3), std::byte{4});
  EXPECT_THROW(v.byte_at(4), std::out_of_range);
}

TEST(DataView, RealSliceSharesBuffer) {
  const DataView v = DataView::real(bytes_of({10, 11, 12, 13, 14}));
  const DataView s = v.slice(1, 3);
  EXPECT_EQ(s.size(), 3);
  EXPECT_EQ(s.byte_at(0), std::byte{11});
  EXPECT_EQ(s.byte_at(2), std::byte{13});
  EXPECT_EQ(s.data(), v.data() + 1);
  EXPECT_THROW(v.slice(3, 3), std::out_of_range);
}

TEST(DataView, SyntheticDeterministicPattern) {
  const DataView v = DataView::synthetic(42, 1000, 16);
  EXPECT_FALSE(v.is_real());
  EXPECT_EQ(v.data(), nullptr);
  // Pattern depends only on (seed, absolute position).
  EXPECT_EQ(v.byte_at(3), DataView::pattern_byte(42, 1003));
  const DataView again = DataView::synthetic(42, 1000, 16);
  for (Offset i = 0; i < 16; ++i) EXPECT_EQ(v.byte_at(i), again.byte_at(i));
}

TEST(DataView, SyntheticSlicePreservesOrigin) {
  const DataView v = DataView::synthetic(7, 500, 100);
  const DataView s = v.slice(10, 20);
  EXPECT_EQ(s.origin(), 510);
  for (Offset i = 0; i < 20; ++i) {
    EXPECT_EQ(s.byte_at(i), v.byte_at(10 + i));
  }
}

TEST(DataView, MaterializeMatchesByteAt) {
  const DataView v = DataView::synthetic(9, 0, 64);
  const std::vector<std::byte> m = v.materialize();
  ASSERT_EQ(m.size(), 64u);
  for (Offset i = 0; i < 64; ++i) {
    EXPECT_EQ(m[static_cast<std::size_t>(i)], v.byte_at(i));
  }
}

TEST(DataView, PatternDiffersBySeed) {
  int diff = 0;
  for (Offset i = 0; i < 256; ++i) {
    if (DataView::pattern_byte(1, i) != DataView::pattern_byte(2, i)) ++diff;
  }
  EXPECT_GT(diff, 200);  // seeds decorrelate almost every byte
}

// A lone synthetic run lives inline: no heap segment beside the view.
static_assert(sizeof(DataView) <= 48);

/// Reference model of a view: its maximal runs, each real (an index into
/// the test's buffers) or synthetic (a seed), merged when one continues
/// the last.
struct ModelRun {
  int buffer = -1;  // -1: synthetic
  std::uint64_t seed = 0;
  Offset start = 0;  // buffer offset, or synthetic origin
  Offset length = 0;
};
using Model = std::vector<ModelRun>;

void model_append(Model& model, const ModelRun& run) {
  if (run.length == 0) return;
  if (!model.empty()) {
    ModelRun& last = model.back();
    if (last.buffer == run.buffer && last.seed == run.seed &&
        last.start + last.length == run.start) {
      last.length += run.length;
      return;
    }
  }
  model.push_back(run);
}

Offset model_size(const Model& model) {
  Offset total = 0;
  for (const ModelRun& run : model) total += run.length;
  return total;
}

Model model_slice(const Model& model, Offset offset, Offset length) {
  Model out;
  for (ModelRun run : model) {
    const Offset skip = std::min(offset, run.length);
    offset -= skip;
    run.start += skip;
    run.length = std::min(run.length - skip, length);
    length -= run.length;
    model_append(out, run);
  }
  return out;
}

TEST(DataView, InlineRunMatchesRope) {
  // Seeded random chains of slice and concat over synthetic and real views,
  // each checked byte for byte against a model materialised separately.
  // Synthetic views draw from two seeds and 64-byte-aligned origins so
  // continuations (which merge) are common.
  for (std::uint64_t chain = 1; chain <= 20; ++chain) {
    std::mt19937_64 rng(chain);
    const auto uniform = [&rng](Offset lo, Offset hi) {
      return lo + static_cast<Offset>(rng() % static_cast<std::uint64_t>(
                                                   hi - lo + 1));
    };
    std::vector<std::shared_ptr<const std::vector<std::byte>>> buffers;
    for (int b = 0; b < 3; ++b) {
      std::vector<std::byte> bytes(512);
      for (std::byte& x : bytes) x = static_cast<std::byte>(rng() & 0xFF);
      buffers.push_back(
          std::make_shared<const std::vector<std::byte>>(std::move(bytes)));
    }
    const auto expected_bytes = [&buffers](const Model& model) {
      std::vector<std::byte> out;
      for (const ModelRun& run : model) {
        for (Offset i = 0; i < run.length; ++i) {
          out.push_back(run.buffer < 0
                            ? DataView::pattern_byte(run.seed, run.start + i)
                            : (*buffers[static_cast<std::size_t>(
                                  run.buffer)])[static_cast<std::size_t>(
                                  run.start + i)]);
        }
      }
      return out;
    };
    const auto fresh = [&]() -> std::pair<DataView, Model> {
      Model model;
      if (rng() % 3 == 0) {
        const int b = static_cast<int>(uniform(0, 2));
        const Offset start = uniform(0, 256);
        const Offset length = uniform(1, 256);
        model_append(model, ModelRun{b, 0, start, length});
        return {DataView::real_slice(buffers[static_cast<std::size_t>(b)],
                                     start, length),
                model};
      }
      const std::uint64_t seed = 1 + rng() % 2;
      const Offset origin = 64 * uniform(0, 8);
      const Offset length = 64 * uniform(1, 4);
      model_append(model, ModelRun{-1, seed, origin, length});
      return {DataView::synthetic(seed, origin, length), model};
    };

    std::vector<std::pair<DataView, Model>> pool;
    for (int i = 0; i < 6; ++i) pool.push_back(fresh());
    for (int step = 0; step < 150; ++step) {
      std::pair<DataView, Model> next;
      const auto pick = [&]() -> const std::pair<DataView, Model>& {
        return pool[static_cast<std::size_t>(
            uniform(0, static_cast<Offset>(pool.size()) - 1))];
      };
      switch (rng() % 4) {
        case 0: {  // slice
          const auto& [view, model] = pick();
          const Offset offset = uniform(0, view.size());
          const Offset length = uniform(0, view.size() - offset);
          next = {view.slice(offset, length),
                  model_slice(model, offset, length)};
          break;
        }
        case 1: {  // concat of 1-4 pool views
          std::vector<DataView> views;
          Model model;
          for (Offset n = uniform(1, 4); n > 0; --n) {
            const auto& [view, parts] = pick();
            views.push_back(view);
            for (const ModelRun& run : parts) model_append(model, run);
          }
          next = {DataView::concat(views), model};
          break;
        }
        case 2: {  // cut a view into pieces and rejoin them
          const auto& [view, model] = pick();
          std::vector<DataView> pieces;
          Offset at = 0;
          while (at < view.size()) {
            const Offset length = uniform(1, view.size() - at);
            pieces.push_back(view.slice(at, length));
            at += length;
          }
          next = {DataView::concat(pieces), model};
          break;
        }
        default:
          next = fresh();
          break;
      }

      const auto& [view, model] = next;
      SCOPED_TRACE("chain " + std::to_string(chain) + " step " +
                   std::to_string(step));
      ASSERT_EQ(view.size(), model_size(model));
      ASSERT_EQ(view.materialize(), expected_bytes(model));
      if (!view.empty()) {
        const Offset i = uniform(0, view.size() - 1);
        EXPECT_EQ(view.byte_at(i),
                  expected_bytes(model)[static_cast<std::size_t>(i)]);
      }
      EXPECT_EQ(view.segment_count(), model.size());
      EXPECT_EQ(view.is_real(), std::all_of(model.begin(), model.end(),
                                            [](const ModelRun& run) {
                                              return run.buffer >= 0;
                                            }));
      if (model.size() == 1 && model[0].buffer < 0) {
        EXPECT_EQ(view.seed(), model[0].seed);
        EXPECT_EQ(view.origin(), model[0].start);
      } else {
        EXPECT_THROW((void)view.seed(), std::logic_error);
        EXPECT_THROW((void)view.origin(), std::logic_error);
      }
      if (model.size() == 1 && model[0].buffer >= 0) {
        EXPECT_EQ(view.data(),
                  buffers[static_cast<std::size_t>(model[0].buffer)]->data() +
                      model[0].start);
      } else {
        EXPECT_EQ(view.data(), nullptr);
      }
      if (!view.empty()) {
        pool[static_cast<std::size_t>(
            uniform(0, static_cast<Offset>(pool.size()) - 1))] = next;
      }
    }
  }
}

TEST(DataView, ExtendIfContinuedJoinsOnlyContinuingSingleRuns) {
  DataView run = DataView::synthetic(5, 100, 50);
  EXPECT_TRUE(run.extend_if_continued(DataView::synthetic(5, 150, 10)));
  EXPECT_EQ(run.size(), 60);
  EXPECT_EQ(run.origin(), 100);
  EXPECT_FALSE(run.extend_if_continued(DataView::synthetic(6, 160, 10)));
  EXPECT_FALSE(run.extend_if_continued(DataView::synthetic(5, 161, 10)));
  EXPECT_FALSE(run.extend_if_continued(DataView()));
  EXPECT_FALSE(DataView().extend_if_continued(run));
  EXPECT_EQ(run.size(), 60);

  const DataView whole = DataView::real(bytes_of({1, 2, 3, 4, 5, 6}));
  DataView head = whole.slice(0, 2);
  EXPECT_TRUE(head.extend_if_continued(whole.slice(2, 2)));
  EXPECT_EQ(head.size(), 4);
  EXPECT_EQ(head.data(), whole.data());
  EXPECT_FALSE(head.extend_if_continued(whole.slice(5, 1)));
  EXPECT_FALSE(head.extend_if_continued(DataView::real(bytes_of({5}))));
  EXPECT_FALSE(head.extend_if_continued(DataView::synthetic(5, 160, 1)));
  EXPECT_EQ(head.size(), 4);

  // A rope on either side stays as it is, even where its bytes continue.
  DataView rope = DataView::concat(
      {DataView::synthetic(5, 0, 10), DataView::synthetic(7, 0, 10)});
  EXPECT_FALSE(rope.extend_if_continued(DataView::synthetic(7, 10, 10)));
  EXPECT_EQ(rope.size(), 20);
  EXPECT_EQ(rope.segment_count(), 2u);
  DataView lone = DataView::synthetic(5, 0, 10);
  EXPECT_FALSE(lone.extend_if_continued(DataView::concat(
      {DataView::synthetic(5, 10, 10), DataView::synthetic(7, 0, 10)})));
  EXPECT_EQ(lone.size(), 10);
}

TEST(DataView, MoveLeavesSourceEmpty) {
  // Whatever a view held — a rope, an inline run, real bytes — it is empty
  // once moved from, and the target reads what the source did.
  DataView rope = DataView::concat(
      {DataView::synthetic(1, 0, 100), DataView::synthetic(2, 0, 100)});
  ASSERT_EQ(rope.segment_count(), 2u);
  const std::byte fifth = rope.byte_at(5);
  const DataView moved(std::move(rope));
  EXPECT_EQ(rope.size(), 0);
  EXPECT_EQ(rope.segment_count(), 0u);
  EXPECT_THROW((void)rope.byte_at(5), std::out_of_range);
  EXPECT_EQ(moved.size(), 200);
  EXPECT_EQ(moved.byte_at(5), fifth);

  DataView run = DataView::synthetic(3, 10, 50);
  DataView target = DataView::real(bytes_of({1, 2}));
  target = std::move(run);
  EXPECT_TRUE(run.empty());
  EXPECT_TRUE(run.materialize().empty());
  EXPECT_EQ(target.size(), 50);
  EXPECT_EQ(target.origin(), 10);

  DataView real = DataView::real(bytes_of({4, 5, 6}));
  DataView other;
  other = std::move(real);
  EXPECT_TRUE(real.empty());
  EXPECT_EQ(real.data(), nullptr);
  EXPECT_EQ(other.byte_at(2), std::byte{6});
}

TEST(ByteStore, WriteAndReadBack) {
  ByteStore store;
  store.write(100, DataView::real(bytes_of({1, 2, 3})));
  EXPECT_EQ(store.byte_at(100), std::byte{1});
  EXPECT_EQ(store.byte_at(102), std::byte{3});
  EXPECT_EQ(store.byte_at(103), std::byte{0});  // unwritten
  EXPECT_EQ(store.extent_end(), 103);
}

TEST(ByteStore, OverwriteSplitsSegments) {
  ByteStore store;
  store.write(0, DataView::real(bytes_of({1, 1, 1, 1, 1, 1, 1, 1})));
  store.write(2, DataView::real(bytes_of({9, 9, 9})));
  EXPECT_EQ(store.byte_at(1), std::byte{1});
  EXPECT_EQ(store.byte_at(2), std::byte{9});
  EXPECT_EQ(store.byte_at(4), std::byte{9});
  EXPECT_EQ(store.byte_at(5), std::byte{1});
  EXPECT_EQ(store.segment_count(), 3u);
}

TEST(ByteStore, ReadAcrossGapZeroFills) {
  ByteStore store;
  store.write(0, DataView::real(bytes_of({5, 5})));
  store.write(4, DataView::real(bytes_of({7, 7})));
  const DataView r = store.read(0, 6);
  EXPECT_EQ(r.size(), 6);
  EXPECT_EQ(r.byte_at(0), std::byte{5});
  EXPECT_EQ(r.byte_at(2), std::byte{0});
  EXPECT_EQ(r.byte_at(3), std::byte{0});
  EXPECT_EQ(r.byte_at(4), std::byte{7});
}

TEST(ByteStore, SyntheticFastPathPreservesRepresentation) {
  ByteStore store;
  store.write(1000, DataView::synthetic(3, 0, 4096));
  const DataView r = store.read(1100, 100);
  EXPECT_FALSE(r.is_real());  // stays synthetic: no materialization
  EXPECT_EQ(r.byte_at(0), DataView::pattern_byte(3, 100));
}

TEST(ByteStore, MixedRealSyntheticRead) {
  ByteStore store;
  store.write(0, DataView::synthetic(3, 0, 100));
  store.write(50, DataView::real(bytes_of({42})));
  const DataView r = store.read(49, 3);
  EXPECT_EQ(r.byte_at(0), DataView::pattern_byte(3, 49));
  EXPECT_EQ(r.byte_at(1), std::byte{42});
  EXPECT_EQ(r.byte_at(2), DataView::pattern_byte(3, 51));
}

TEST(ByteStore, OverwriteIdenticalRange) {
  ByteStore store;
  store.write(10, DataView::real(bytes_of({1, 2})));
  store.write(10, DataView::real(bytes_of({3, 4})));
  EXPECT_EQ(store.byte_at(10), std::byte{3});
  EXPECT_EQ(store.byte_at(11), std::byte{4});
  EXPECT_EQ(store.segment_count(), 1u);
}

TEST(ByteStore, InOrderAppendsNeverSweep) {
  // Appends in offset order keep the log sorted and clean: one entry per
  // write, past the floor, and neither a write nor a read sweeps it. A read
  // across continuing entries still comes back as one run.
  constexpr Offset kAppends =
      4 * static_cast<Offset>(ByteStore::kCompactFloor);
  ByteStore store;
  for (Offset i = 0; i < kAppends; ++i) {
    store.write(i * 64, DataView::synthetic(1, i * 64, 64));
    ASSERT_EQ(store.log_entries(), static_cast<std::size_t>(i + 1));
  }
  const Offset end = kAppends * 64;
  const auto buffer =
      std::make_shared<const std::vector<std::byte>>(256, std::byte{7});
  store.write(end, DataView::real_slice(buffer, 0, 128));
  store.write(end + 128, DataView::real_slice(buffer, 128, 128));
  store.write(end + 400, DataView::synthetic(2, 64, 64));  // past a gap
  const auto appends = static_cast<std::size_t>(kAppends + 3);
  EXPECT_EQ(store.log_entries(), appends);

  const DataView first = store.read(0, end);
  EXPECT_EQ(first.segment_count(), 1u);
  EXPECT_EQ(first.origin(), 0);
  EXPECT_EQ(store.read(end, 256).data(), buffer->data());
  EXPECT_EQ(store.byte_at(end + 300), std::byte{0});
  EXPECT_EQ(store.byte_at(end + 400), DataView::pattern_byte(2, 64));
  EXPECT_EQ(store.segment_count(), appends);

  // Rewriting the first bytes as they are dirties the store, and its sweep
  // joins each continuing stretch: the pattern, the buffer, the lone run.
  store.write(0, DataView::synthetic(1, 0, 64));
  EXPECT_EQ(store.segment_count(), 3u);
  EXPECT_EQ(store.read(0, end).origin(), 0);
  EXPECT_EQ(store.byte_at(end + 300), std::byte{0});
}

TEST(ByteStore, SweepJoinsContinuingRunsAcrossWrites) {
  // Two pieces of one run written out of order, and an overwrite whose
  // bytes happen to continue what it covers: each is one run again.
  ByteStore store;
  store.write(100, DataView::synthetic(4, 100, 100));
  store.write(0, DataView::synthetic(4, 0, 100));
  store.write(300, DataView::synthetic(4, 0, 100));
  store.write(320, DataView::synthetic(4, 20, 10));
  EXPECT_EQ(store.log_entries(), 4u);
  EXPECT_EQ(store.segment_count(), 2u);
  EXPECT_EQ(store.read(0, 200).origin(), 0);
  EXPECT_EQ(store.read(300, 100).origin(), 0);
  // A shadowing write that does not continue still splits the run.
  store.write(50, DataView::synthetic(9, 0, 10));
  EXPECT_EQ(store.segment_count(), 4u);
  EXPECT_EQ(store.byte_at(49), DataView::pattern_byte(4, 49));
  EXPECT_EQ(store.byte_at(50), DataView::pattern_byte(9, 0));
  EXPECT_EQ(store.byte_at(60), DataView::pattern_byte(4, 60));
}

TEST(ByteStore, DirtyLogConsolidatesWhenItDoubles) {
  constexpr std::size_t kFloor = ByteStore::kCompactFloor;
  {
    // Descending pieces of one run: every write after the first lands
    // below the end. The log grows until it reaches the floor, and that
    // write's sweep joins it back into one run.
    ByteStore store;
    const Offset top = 16 * static_cast<Offset>(4 * kFloor);
    std::size_t sweeps = 0;
    for (std::size_t n = 0; n < 4 * kFloor; ++n) {
      const Offset at = top - 16 * static_cast<Offset>(n);
      const std::size_t before = store.log_entries();
      store.write(at, DataView::synthetic(1, at, 16));
      ASSERT_LT(store.log_entries(), kFloor);
      if (store.log_entries() < before) {
        ++sweeps;
        ASSERT_EQ(before, kFloor - 1);
        ASSERT_EQ(store.log_entries(), 1u);
      }
    }
    EXPECT_EQ(sweeps, 4u);
    EXPECT_EQ(store.segment_count(), 1u);
  }
  {
    // 1500 runs of their own seed, 16 B apart: in-order appends, so the
    // log stays clean and nothing sweeps. Continuing each run into its gap
    // dirties the store, which then sweeps when the log doubles, not at
    // the floor.
    constexpr Offset kRuns = 1500;
    const auto run_seed = [](Offset i) {
      return 100 + static_cast<std::uint64_t>(i);
    };
    ByteStore store;
    for (Offset i = 0; i < kRuns; ++i) {
      store.write(32 * i, DataView::synthetic(run_seed(i), 0, 16));
    }
    EXPECT_EQ(store.log_entries(), static_cast<std::size_t>(kRuns));
    for (Offset i = 0; i < kRuns; ++i) {
      store.write(32 * i + 16, DataView::synthetic(run_seed(i), 16, 16));
      const std::size_t expected =
          i + 1 < kRuns ? static_cast<std::size_t>(kRuns + i + 1)
                        : static_cast<std::size_t>(kRuns);
      ASSERT_EQ(store.log_entries(), expected) << "continuation " << i;
    }
    EXPECT_EQ(store.segment_count(), static_cast<std::size_t>(kRuns));
    EXPECT_EQ(store.read(32 * 7, 32).origin(), 0);
    store.clear();
    EXPECT_EQ(store.log_entries(), 0u);
    EXPECT_EQ(store.extent_end(), 0);
  }
}

TEST(ByteStore, ContentHashIgnoresHowBytesWereWritten) {
  // Run x (2 KiB) then run y (1 KiB), each of its own seed.
  const DataView x = DataView::synthetic(5, 0, 2048);
  const DataView y = DataView::synthetic(6, 100, 1024);
  ByteStore rope;  // one write of a two-segment rope
  rope.write(0, DataView::concat({x, y}));
  ByteStore shuffled;  // 512-byte pieces out of order: swept
  for (const Offset k : {4, 1, 5, 0, 3, 2}) {
    const Offset at = 512 * k;
    shuffled.write(at, at < 2048 ? x.slice(at, 512) : y.slice(at - 2048, 512));
  }
  ByteStore appended;  // in order, a rope across the seam: never swept
  appended.write(0, x.slice(0, 512));
  appended.write(512, DataView::concat({x.slice(512, 1536), y.slice(0, 512)}));
  appended.write(2560, y.slice(512, 512));
  const std::uint64_t hash = rope.content_hash();
  EXPECT_EQ(shuffled.content_hash(), hash);
  EXPECT_EQ(appended.content_hash(), hash);
  EXPECT_EQ(shuffled.segment_count(), 2u);
  EXPECT_EQ(appended.segment_count(), 3u);

  // Real bytes hash by value, however they were cut and from whichever
  // buffer; at offset 7, no cut falls on a word boundary.
  std::vector<std::byte> bytes(100);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::byte>(1 + i % 250);
  }
  const DataView whole = DataView::real(bytes);
  ByteStore one;
  one.write(7, whole);
  ByteStore sliced;
  sliced.write(7 + 50, whole.slice(50, 50));
  sliced.write(7, whole.slice(0, 13));
  sliced.write(7 + 13, whole.slice(13, 37));
  ByteStore copies;
  for (const auto& [from, length] :
       {std::pair<Offset, Offset>{0, 3}, {3, 61}, {64, 36}}) {
    copies.write(7 + from, DataView::real(whole.slice(from, length)
                                              .materialize()));
  }
  EXPECT_EQ(sliced.content_hash(), one.content_hash());
  EXPECT_EQ(copies.content_hash(), one.content_hash());

  // A hole hashes like explicit zeros over it: written apart, written back
  // as zeros (as data sieving does), and zeros beside real bytes in a word.
  ByteStore holes;
  holes.write(0, x);
  holes.write(4096, y);
  holes.write(5130, DataView::real(bytes_of({9})));
  ByteStore zeros;
  zeros.write(0, DataView::concat(
                     {x, DataView::real(std::vector<std::byte>(2048)), y}));
  zeros.write(5120, DataView::real(bytes_of({0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                             9})));
  EXPECT_EQ(zeros.extent_end(), holes.extent_end());
  EXPECT_EQ(zeros.content_hash(), holes.content_hash());
}

TEST(ByteStore, ContentHashSeesEveryChange) {
  const DataView x = DataView::synthetic(5, 0, 1024);
  const DataView y = DataView::synthetic(6, 0, 1024);
  const DataView tail = DataView::synthetic(7, 0, 64);
  const auto store_of = [&tail](Offset x_at, const DataView& first,
                                const DataView& second) {
    ByteStore store;
    store.write(x_at, first);
    store.write(1100, second);
    store.write(4096, tail);
    return store;
  };
  const std::uint64_t hash = store_of(0, x, y).content_hash();
  // Two equal-length pieces swapped.
  EXPECT_NE(store_of(0, y, x).content_hash(), hash);
  // A run moved by one byte, or its pattern by one position.
  EXPECT_NE(store_of(1, x, y).content_hash(), hash);
  EXPECT_NE(store_of(0, DataView::synthetic(5, 1, 1024), y).content_hash(),
            hash);
  // A file one byte shorter.
  ByteStore shorter;
  shorter.write(0, x);
  shorter.write(1100, y);
  shorter.write(4096, tail.slice(0, 63));
  EXPECT_NE(shorter.content_hash(), hash);

  // One real byte changed, in the middle of a word.
  std::vector<std::byte> bytes(64, std::byte{3});
  ByteStore real;
  real.write(0, DataView::real(bytes));
  bytes[21] = std::byte{4};
  ByteStore changed;
  changed.write(0, DataView::real(bytes));
  EXPECT_NE(changed.content_hash(), real.content_hash());
}

/// Where one byte of the file comes from, in a flat reference model of a
/// ByteStore that shares no code with it: byte `pos` of real buffer
/// `buffer`, or of synthetic pattern `seed` when `buffer` is -1. An
/// unwritten byte reads as zero.
struct ByteSource {
  bool written = false;
  int buffer = -1;
  std::uint64_t seed = 0;
  Offset pos = 0;

  bool continued_by(const ByteSource& next) const {
    return written && next.written && buffer == next.buffer &&
           seed == next.seed && pos + 1 == next.pos;
  }
};

TEST(ByteStore, MatchesByteModelAcrossCompactions) {
  // Seeded random write sequences checked against the flat model: in-order
  // appends that continue the previous write, contiguous pieces of one run
  // written out of order (joined by the sweep), partial overlaps and exact
  // overwrites (shadowing) and writes past unwritten gaps, over synthetic
  // runs of three seeds and slices of three shared real buffers. Short
  // writes keep hundreds of runs live, so the stores sweep on writes both
  // at the floor and at twice a longer log.
  constexpr int kWrites = 5000;
  constexpr int kCheckEvery = 500;
  constexpr Offset kBufferBytes = 4 * units::KiB;
  std::size_t floor_sweeps = 0;     // a write swept a log at the floor
  std::size_t doubling_sweeps = 0;  // ... at twice a longer clean log
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const auto uniform = [&rng](Offset lo, Offset hi) {
      return lo + static_cast<Offset>(rng() % static_cast<std::uint64_t>(
                                                   hi - lo + 1));
    };
    std::vector<std::shared_ptr<const std::vector<std::byte>>> buffers;
    for (int b = 0; b < 3; ++b) {
      std::vector<std::byte> bytes(static_cast<std::size_t>(kBufferBytes));
      for (std::byte& x : bytes) x = static_cast<std::byte>(rng() & 0xFF);
      buffers.push_back(
          std::make_shared<const std::vector<std::byte>>(std::move(bytes)));
    }
    const auto expected = [&buffers](const ByteSource& b) {
      if (!b.written) return std::byte{0};
      if (b.buffer < 0) return DataView::pattern_byte(b.seed, b.pos);
      return (*buffers[static_cast<std::size_t>(b.buffer)])
          [static_cast<std::size_t>(b.pos)];
    };

    ByteStore store;
    std::vector<ByteSource> model;
    std::size_t runs = 0;  // maximal continuing runs in the model
    // The trigger, mirrored: a write below the extent of a clean store arms
    // it at twice the log the store had, at least the floor, and the write
    // that brings the log to it sweeps. A read sweeps a dirty store too.
    bool clean = true;
    std::size_t trigger = 0;
    const auto source_at = [&model](Offset i) {
      return i < static_cast<Offset>(model.size())
                 ? model[static_cast<std::size_t>(i)]
                 : ByteSource{};
    };
    const auto run_starts = [&](Offset lo, Offset hi) {
      std::size_t starts = 0;
      for (Offset i = lo; i < hi; ++i) {
        const ByteSource b = source_at(i);
        if (b.written && (i == 0 || !source_at(i - 1).continued_by(b))) {
          ++starts;
        }
      }
      return starts;
    };
    // A fresh source with room for `length` bytes.
    const auto fresh = [&](Offset length) {
      ByteSource s;
      s.written = true;
      if (rng() % 2 == 0) {
        s.buffer = static_cast<int>(uniform(0, 2));
        s.pos = uniform(0, kBufferBytes - length);
      } else {
        s.seed = static_cast<std::uint64_t>(uniform(1, 3));
        s.pos = uniform(0, 4 * kBufferBytes);
      }
      return s;
    };
    // Usually none; one time in four, up to 16 unwritten bytes.
    const auto gap = [&] { return rng() % 4 == 0 ? uniform(1, 16) : 0; };
    Offset last_offset = 0;
    Offset last_length = 0;
    ByteSource last_source;
    std::vector<std::pair<Offset, Offset>> history;  // (offset, length)
    int writes = 0;

    // Checks a copy: reading consolidates, and the store's own log must
    // reach its trigger between checks.
    const auto check = [&] {
      const ByteStore copy = store;
      const Offset extent = static_cast<Offset>(model.size());
      ASSERT_EQ(copy.extent_end(), extent);
      for (Offset i = 0; i < extent + 64; ++i) {
        ASSERT_EQ(copy.byte_at(i), expected(source_at(i))) << "byte " << i;
      }
      for (int r = 0; r < 20; ++r) {
        const Offset offset = uniform(0, extent + 32);
        const Offset length = uniform(1, 1024);
        const std::vector<std::byte> got =
            copy.read(offset, length).materialize();
        ASSERT_EQ(got.size(), static_cast<std::size_t>(length));
        for (Offset i = 0; i < length; ++i) {
          ASSERT_EQ(got[static_cast<std::size_t>(i)],
                    expected(source_at(offset + i)))
              << "read " << offset << "+" << length << " at " << i;
        }
      }
      ASSERT_EQ(copy.segment_count(), clean ? store.log_entries() : runs);
      // The store whose sweeps moved views hashes like the model's maximal
      // runs appended in order, a store that never sweeps.
      ByteStore rebuilt;
      for (Offset i = 0; i < extent;) {
        const ByteSource b = source_at(i);
        Offset length = 1;
        while (i + length < extent &&
               source_at(i + length - 1).continued_by(source_at(i + length))) {
          ++length;
        }
        if (b.written) {
          rebuilt.write(i, b.buffer < 0
                               ? DataView::synthetic(b.seed, b.pos, length)
                               : DataView::real_slice(
                                     buffers[static_cast<std::size_t>(
                                         b.buffer)],
                                     b.pos, length));
        }
        i += length;
      }
      ASSERT_EQ(rebuilt.log_entries(), runs);
      ASSERT_EQ(copy.content_hash(), rebuilt.content_hash());
    };
    const auto write = [&](Offset offset, const ByteSource& s,
                           Offset length) {
      const DataView view =
          s.buffer < 0
              ? DataView::synthetic(s.seed, s.pos, length)
              : DataView::real_slice(
                    buffers[static_cast<std::size_t>(s.buffer)], s.pos,
                    length);
      const std::size_t before = store.log_entries();
      if (clean && before > 0 && offset < static_cast<Offset>(model.size())) {
        clean = false;
        trigger = std::max(ByteStore::kCompactFloor, 2 * before);
      }
      store.write(offset, view);

      const Offset end = offset + length;
      if (static_cast<Offset>(model.size()) < end) {
        model.resize(static_cast<std::size_t>(end));
      }
      const Offset hi = std::min(end + 1, static_cast<Offset>(model.size()));
      runs -= run_starts(offset, hi);
      for (Offset i = 0; i < length; ++i) {
        ByteSource& b = model[static_cast<std::size_t>(offset + i)];
        b = s;
        b.pos = s.pos + i;
      }
      runs += run_starts(offset, hi);
      if (!clean && before + 1 == trigger) {
        // The sweep leaves one entry per maximal run.
        ASSERT_EQ(store.log_entries(), runs) << "write " << writes;
        ++(trigger == ByteStore::kCompactFloor ? floor_sweeps
                                               : doubling_sweeps);
        clean = true;
      } else {
        ASSERT_EQ(store.log_entries(), before + 1) << "write " << writes;
      }

      last_offset = offset;
      last_length = length;
      last_source = s;
      history.emplace_back(offset, length);
      if (++writes % kCheckEvery == 0) check();
    };

    while (writes < kWrites && !HasFatalFailure()) {
      const Offset extent = static_cast<Offset>(model.size());
      // One burst in 128 is a read instead, which consolidates the store
      // itself.
      const std::uint64_t kind = rng() % 128;
      switch (kind == 0 ? 6 : kind % 6) {
        case 0:
        case 5: {  // one write anywhere, usually a partial overlap
          const Offset length = uniform(1, 32);
          write(uniform(0, extent), fresh(length), length);
          break;
        }
        case 1: {  // pieces continuing one run in order, often at the end
          const Offset pieces = uniform(2, 16);
          const Offset piece = uniform(1, 32);
          ByteSource s = fresh(pieces * piece);
          Offset at = rng() % 3 != 0 ? extent + gap() : uniform(0, extent);
          for (Offset k = 0; k < pieces && writes < kWrites; ++k) {
            write(at, s, piece);
            at += piece;
            s.pos += piece;
          }
          break;
        }
        case 2: {  // contiguous pieces of one run, out of order
          const Offset pieces = uniform(2, 8);
          const Offset piece = uniform(1, 32);
          const ByteSource s = fresh(pieces * piece);
          const Offset at = uniform(0, extent);
          std::vector<Offset> order;
          for (Offset k = 0; k < pieces; ++k) order.push_back(k);
          std::shuffle(order.begin(), order.end(), rng);
          for (const Offset k : order) {
            if (writes == kWrites) break;
            ByteSource p = s;
            p.pos += k * piece;
            write(at + k * piece, p, piece);
          }
          break;
        }
        case 3: {  // exact overwrite of an earlier write
          if (history.empty()) break;
          const auto [offset, length] = history[static_cast<std::size_t>(
              uniform(0, static_cast<Offset>(history.size()) - 1))];
          write(offset, fresh(length), length);
          break;
        }
        case 4: {  // continue the previous write where it ended
          if (last_length == 0) break;
          ByteSource s = last_source;
          s.pos += last_length;
          Offset length = uniform(1, 64);
          if (s.buffer >= 0) length = std::min(length, kBufferBytes - s.pos);
          if (length == 0) break;
          // Sometimes past a gap: the bytes continue, their place not.
          write(last_offset + last_length + gap(), s, length);
          break;
        }
        default: {  // a read between writes
          const Offset offset = uniform(0, extent);
          const Offset length = uniform(1, 256);
          const std::vector<std::byte> got =
              store.read(offset, length).materialize();
          for (Offset i = 0; i < length; ++i) {
            ASSERT_EQ(got[static_cast<std::size_t>(i)],
                      expected(source_at(offset + i)));
          }
          if (!clean) {
            ASSERT_EQ(store.log_entries(), runs);
          }
          clean = true;
          break;
        }
      }
    }
  }
  // The sequences do reach both triggers.
  EXPECT_GE(floor_sweeps, 20u);
  EXPECT_GE(doubling_sweeps, 10u);
}

TEST(ByteStore, InterleavedWritersStayMerged) {
  // The aggregators' flush pattern of flashio_twolevel_32x4m at 512 ranks:
  // 32 sync threads drain their file domains into one global file in
  // 512 KiB pieces, interleaved round-robin. A 1 MiB header (32 pieces of
  // one run), then 24 datasets of 512 ranks x 2.5 MiB, each rank's block
  // one run of its own seed. 61,472 writes in all; one entry per write
  // would be 61,472 segments, the merged runs are 512 x 24 + 1.
  constexpr Offset kWriters = 32;
  constexpr Offset kRanks = 512;
  constexpr Offset kVariables = 24;
  constexpr Offset kPiece = 512 * units::KiB;
  constexpr Offset kBlock = 5 * kPiece;  // one rank's share of a dataset
  constexpr Offset kHeader = 1 * units::MiB;
  constexpr Offset kDataset = kRanks * kBlock;
  constexpr Offset kDomain = kDataset / kWriters;
  constexpr Offset kPiecesPerDomain = kDomain / kPiece;
  ByteStore store;
  std::size_t writes = 0;
  std::size_t runs = 0;
  std::size_t peak_log = 0;
  const auto write = [&](Offset offset, std::uint64_t seed, Offset origin,
                         Offset length, bool starts_run) {
    store.write(offset, DataView::synthetic(seed, origin, length));
    ++writes;
    if (starts_run) ++runs;
    peak_log = std::max(peak_log, store.log_entries());
    ASSERT_LE(store.log_entries(),
              std::max(ByteStore::kCompactFloor, 2 * runs));
  };
  const Offset header_piece = kHeader / kWriters;
  for (Offset w = 0; w < kWriters; ++w) {
    write(w * header_piece, 0xEAD5, w * header_piece, header_piece, w == 0);
  }
  for (Offset v = 0; v < kVariables; ++v) {
    const Offset base = kHeader + v * kDataset;
    for (Offset k = 0; k < kPiecesPerDomain; ++k) {
      for (Offset w = 0; w < kWriters; ++w) {
        const Offset in_dataset = w * kDomain + k * kPiece;
        const Offset rank = in_dataset / kBlock;
        const Offset in_block = in_dataset % kBlock;
        write(base + in_dataset, 1000 + static_cast<std::uint64_t>(rank),
              v * kBlock + in_block, kPiece, in_block == 0);
      }
    }
  }
  EXPECT_EQ(writes, 61472u);
  EXPECT_EQ(runs, 12289u);
  EXPECT_LT(peak_log, 2 * runs);
  EXPECT_EQ(store.segment_count(), 12289u);
  EXPECT_EQ(store.extent_end(), kHeader + kVariables * kDataset);
  const DataView block = store.read(kHeader + 3 * kDataset + 7 * kBlock,
                                    kBlock);
  EXPECT_EQ(block.segment_count(), 1u);
  EXPECT_EQ(block.seed(), 1007u);
  EXPECT_EQ(block.origin(), 3 * kBlock);
}

}  // namespace
}  // namespace e10

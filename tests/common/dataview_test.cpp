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

}  // namespace
}  // namespace e10

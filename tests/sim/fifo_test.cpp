// sim::Fifo against a std::deque model: randomized pushes, pops, walks and
// clears across the compaction point, and release of popped elements.
#include "sim/fifo.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <random>

namespace e10::sim {
namespace {

TEST(Fifo, MatchesDequeModel) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 rng(seed);
    Fifo<std::shared_ptr<int>> fifo;
    std::deque<std::shared_ptr<int>> model;
    int next = 0;
    std::uint64_t push_percent = 50;
    for (int step = 0; step < 20000; ++step) {
      // Phases that grow, drain or hover move the size across the
      // compaction point from many depths.
      if (step % 400 == 0) push_percent = 20 + 30 * (rng() % 3);
      const std::uint64_t roll = rng() % 100;
      if (roll < push_percent) {
        auto value = std::make_shared<int>(next++);
        fifo.push_back(value);
        model.push_back(value);
      } else if (roll < 97) {
        if (model.empty()) continue;
        const std::shared_ptr<int> popped = model.front();
        model.pop_front();
        ASSERT_EQ(popped.use_count(), 2);  // `popped` and the Fifo's copy
        fifo.pop_front();
        ASSERT_EQ(popped.use_count(), 1) << "seed " << seed;
      } else if (roll < 99) {
        auto it = model.begin();
        for (const std::shared_ptr<int>& value : fifo) {
          ASSERT_NE(it, model.end());
          ASSERT_EQ(value, *it++);
        }
        ASSERT_EQ(it, model.end());
      } else {
        fifo.clear();
        model.clear();
      }
      ASSERT_EQ(fifo.size(), model.size());
      ASSERT_EQ(fifo.empty(), model.empty());
      if (!model.empty()) {
        ASSERT_EQ(fifo.front(), model.front());
        ASSERT_EQ(fifo.back(), model.back());
      }
    }
  }
}

}  // namespace
}  // namespace e10::sim

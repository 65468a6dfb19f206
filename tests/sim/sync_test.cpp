#include "sim/sync.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/units.h"

namespace e10::sim {
namespace {

using namespace e10::units;

TEST(SimMutex, MutualExclusionSerializesCriticalSections) {
  Engine eng;
  SimMutex mu(eng);
  int inside = 0;
  int max_inside = 0;
  for (int i = 0; i < 4; ++i) {
    eng.spawn("p" + std::to_string(i), [&] {
      SimLock lock(mu);
      ++inside;
      max_inside = std::max(max_inside, inside);
      eng.delay(milliseconds(1));
      --inside;
    });
  }
  eng.run();
  EXPECT_EQ(max_inside, 1);
}

TEST(SimMutex, FifoHandoff) {
  Engine eng;
  SimMutex mu(eng);
  std::vector<int> order;
  eng.spawn("holder", [&] {
    mu.lock();
    eng.delay(milliseconds(10));
    mu.unlock();
  });
  for (int i = 0; i < 3; ++i) {
    eng.spawn("w" + std::to_string(i), [&, i] {
      eng.delay(microseconds(i + 1));  // deterministic arrival order
      SimLock lock(mu);
      order.push_back(i);
    });
  }
  eng.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimMutex, UnlockWhileUnlockedThrows) {
  Engine eng;
  SimMutex mu(eng);
  eng.spawn("p", [&] { mu.unlock(); });
  EXPECT_THROW(eng.run(), std::logic_error);
}

TEST(SimEvent, WaitBeforeSet) {
  Engine eng;
  SimEvent ev(eng);
  Time woke = -1;
  eng.spawn("waiter", [&] {
    ev.wait();
    woke = eng.now();
  });
  eng.spawn("setter", [&] {
    eng.delay(seconds(3));
    ev.set();
  });
  eng.run();
  EXPECT_EQ(woke, seconds(3));
}

TEST(SimEvent, WaitAfterSetAdvancesToCompletionTime) {
  Engine eng;
  SimEvent ev(eng);
  Time woke = -1;
  eng.spawn("setter", [&] { ev.set_at(seconds(10)); });  // async completion
  eng.spawn("late-waiter", [&] {
    eng.delay(seconds(1));
    ev.wait();
    woke = eng.now();
  });
  eng.run();
  EXPECT_EQ(woke, seconds(10));
}

TEST(SimEvent, WaitAfterPastCompletionDoesNotRewind) {
  Engine eng;
  SimEvent ev(eng);
  Time woke = -1;
  eng.spawn("setter", [&] { ev.set(); });  // completes at t=0
  eng.spawn("waiter", [&] {
    eng.delay(seconds(5));
    ev.wait();
    woke = eng.now();
  });
  eng.run();
  EXPECT_EQ(woke, seconds(5));
}

TEST(SimEvent, DoubleSetThrows) {
  Engine eng;
  SimEvent ev(eng);
  eng.spawn("p", [&] {
    ev.set();
    ev.set();
  });
  EXPECT_THROW(eng.run(), std::logic_error);
}

}  // namespace
}  // namespace e10::sim

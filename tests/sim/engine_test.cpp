#include "sim/engine.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdlib>
#include <string>
#include <system_error>
#include <vector>

#include "common/units.h"

namespace e10::sim {
namespace {

using namespace e10::units;

TEST(Engine, SingleProcessDelays) {
  Engine eng;
  Time observed = -1;
  eng.spawn("p", [&] {
    EXPECT_EQ(eng.now(), 0);
    eng.delay(milliseconds(5));
    EXPECT_EQ(eng.now(), milliseconds(5));
    eng.delay(microseconds(3));
    observed = eng.now();
  });
  eng.run();
  EXPECT_EQ(observed, milliseconds(5) + microseconds(3));
}

TEST(Engine, LowestTimeRunsFirst) {
  Engine eng;
  std::vector<int> order;
  eng.spawn("late", [&] {
    eng.delay(milliseconds(10));
    order.push_back(2);
  });
  eng.spawn("early", [&] {
    eng.delay(milliseconds(1));
    order.push_back(1);
  });
  eng.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(Engine, FifoTieBreakAtEqualTimes) {
  Engine eng;
  std::vector<std::string> order;
  for (const char* name : {"a", "b", "c"}) {
    eng.spawn(name, [&order, name] { order.push_back(name); });
  }
  eng.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "a");
  EXPECT_EQ(order[1], "b");
  EXPECT_EQ(order[2], "c");
}

TEST(Engine, SpawnFromWithinProcessStartsAtSpawnerTime) {
  Engine eng;
  Time child_start = -1;
  eng.spawn("parent", [&] {
    eng.delay(seconds(1));
    eng.spawn("child", [&] { child_start = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(child_start, seconds(1));
}

TEST(Engine, JoinAdvancesToFinishTime) {
  Engine eng;
  Time joined_at = -1;
  auto worker = eng.spawn("worker", [&] { eng.delay(seconds(2)); });
  eng.spawn("joiner", [&] {
    worker.join();
    joined_at = eng.now();
  });
  eng.run();
  EXPECT_EQ(joined_at, seconds(2));
  EXPECT_TRUE(worker.finished());
}

TEST(Engine, JoinAlreadyFinished) {
  Engine eng;
  Time joined_at = -1;
  auto worker = eng.spawn("worker", [&] { eng.delay(seconds(1)); });
  eng.spawn("joiner", [&] {
    eng.delay(seconds(5));
    worker.join();  // finished long ago: clock stays at 5 s
    joined_at = eng.now();
  });
  eng.run();
  EXPECT_EQ(joined_at, seconds(5));
}

TEST(Engine, AdvanceToPastIsNoop) {
  Engine eng;
  eng.spawn("p", [&] {
    eng.delay(seconds(1));
    eng.advance_to(milliseconds(1));  // in the past
    EXPECT_EQ(eng.now(), seconds(1));
    eng.advance_to(seconds(3));
    EXPECT_EQ(eng.now(), seconds(3));
  });
  eng.run();
}

TEST(Engine, MakeReadyWithFutureTimeSchedulesWakeup) {
  Engine eng;
  Time woke_at = -1;
  ProcessId sleeper_id = kNoProcess;
  eng.spawn("sleeper", [&] {
    sleeper_id = eng.current();
    eng.block("test");
    woke_at = eng.now();
  });
  eng.spawn("waker", [&] {
    eng.delay(milliseconds(1));
    eng.make_ready(sleeper_id, seconds(4));  // wake in the future
  });
  eng.run();
  EXPECT_EQ(woke_at, seconds(4));
}

TEST(Engine, DeadlockDetected) {
  Engine eng;
  eng.spawn("stuck", [&] { eng.block("forever"); });
  EXPECT_THROW(eng.run(), DeadlockError);
}

TEST(Engine, DeadlockReportNamesProcess) {
  Engine eng;
  eng.spawn("the-culprit", [&] { eng.block("a-reason"); });
  try {
    eng.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("the-culprit"), std::string::npos);
    EXPECT_NE(what.find("a-reason"), std::string::npos);
  }
}

TEST(Engine, ProcessExceptionPropagates) {
  Engine eng;
  eng.spawn("thrower", [] { throw std::runtime_error("boom"); });
  eng.spawn("bystander", [&] { eng.delay(seconds(100)); });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, DestructorCleansUpWithoutRun) {
  // Spawned but never run: destructor must cancel and join cleanly.
  Engine eng;
  eng.spawn("never-run", [&] { eng.delay(seconds(1)); });
}

TEST(Engine, DestructorCleansUpBlockedProcesses) {
  auto eng = std::make_unique<Engine>();
  eng->spawn("blocked-forever", [&e = *eng] { e.block("leak-check"); });
  try {
    eng->run();
  } catch (const DeadlockError&) {
    // expected
  }
  eng.reset();  // must not hang or crash
}

TEST(Engine, ManyProcessesDeterministicOrder) {
  // Two identical runs produce identical completion sequences.
  auto run_once = [] {
    Engine eng;
    std::vector<int> done;
    for (int i = 0; i < 64; ++i) {
      eng.spawn("p" + std::to_string(i), [&eng, &done, i] {
        eng.delay(microseconds((i * 7) % 13));
        eng.delay(microseconds((i * 3) % 5));
        done.push_back(i);
      });
    }
    eng.run();
    return done;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, NegativeDelayThrows) {
  Engine eng;
  eng.spawn("p", [&] { eng.delay(-1); });
  EXPECT_THROW(eng.run(), std::logic_error);
}

TEST(Engine, SwitchCountGrows) {
  // Two interleaving processes force real fiber switches; a lone process
  // delaying takes the no-switch fast path.
  Engine eng;
  for (int p = 0; p < 2; ++p) {
    eng.spawn("p" + std::to_string(p), [&] {
      for (int i = 0; i < 10; ++i) eng.delay(1);
    });
  }
  eng.run();
  EXPECT_GE(eng.stats().switches, 20u);
}

TEST(Engine, LoneProcessDelaysWithoutSwitching) {
  Engine eng;
  eng.spawn("solo", [&] {
    for (int i = 0; i < 100; ++i) eng.delay(units::microseconds(1));
    EXPECT_EQ(eng.now(), units::microseconds(100));
  });
  eng.run();
  EXPECT_LE(eng.stats().switches, 2u);  // just the initial resume
}

TEST(Engine, StopAtHaltsRunAtDeadline) {
  Engine eng;
  std::vector<Time> observed;
  for (int p = 0; p < 3; ++p) {
    eng.spawn("p" + std::to_string(p), [&] {
      for (int i = 0; i < 10; ++i) {
        eng.delay(milliseconds(1));
        observed.push_back(eng.now());
      }
    });
  }
  eng.stop_at(milliseconds(4));
  eng.run();
  EXPECT_TRUE(eng.stopped());
  EXPECT_EQ(eng.now(), milliseconds(4));
  // No simulated work at or after the stop time happened.
  ASSERT_FALSE(observed.empty());
  for (const Time t : observed) EXPECT_LT(t, milliseconds(4));
  EXPECT_EQ(eng.live_processes(), 0u);  // everyone was cancelled
}

TEST(Engine, StopAtLoneProcessFastPath) {
  // A lone process delaying takes the no-switch fast path; the stop must
  // still interrupt it at the deadline.
  Engine eng;
  Time last = -1;
  eng.spawn("solo", [&] {
    for (int i = 0; i < 100; ++i) {
      eng.delay(microseconds(10));
      last = eng.now();
    }
  });
  eng.stop_at(microseconds(55));
  eng.run();
  EXPECT_TRUE(eng.stopped());
  EXPECT_EQ(eng.now(), microseconds(55));
  EXPECT_EQ(last, microseconds(50));
}

TEST(Engine, StopIsOneShotAndRecoveryRunProceeds) {
  Engine eng;
  int crashed_progress = 0;
  eng.spawn("victim", [&] {
    for (int i = 0; i < 10; ++i) {
      eng.delay(milliseconds(1));
      ++crashed_progress;
    }
  });
  eng.stop_at(milliseconds(3));
  eng.run();
  EXPECT_TRUE(eng.stopped());
  EXPECT_EQ(crashed_progress, 2);  // work strictly before t=3ms only

  // Recovery pass: a fresh process spawned from outside starts at the
  // crash time and runs to completion — the stop does not re-fire.
  Time recovery_start = -1;
  Time recovery_end = -1;
  eng.spawn("recovery", [&] {
    recovery_start = eng.now();
    eng.delay(milliseconds(2));
    recovery_end = eng.now();
  });
  eng.run();
  EXPECT_FALSE(eng.stopped());
  EXPECT_EQ(recovery_start, milliseconds(3));
  EXPECT_EQ(recovery_end, milliseconds(5));
}

TEST(Engine, StopAfterNaturalCompletionIsNotStopped) {
  Engine eng;
  eng.spawn("p", [&] { eng.delay(milliseconds(1)); });
  eng.stop_at(milliseconds(100));
  eng.run();
  EXPECT_FALSE(eng.stopped());
  // The unconsumed arm must not break a later run either.
  eng.spawn("q", [&] { eng.delay(milliseconds(1)); });
  eng.run();
  EXPECT_FALSE(eng.stopped());
}

// Recurses through `depth` 1 KiB frames that the compiler must keep, each
// written at its lowest byte, so the recursion touches every page it spans.
__attribute__((noinline)) int deep_frames(int depth) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(depth);
  if (depth == 0) return frame[0];
  return deep_frames(depth - 1) + frame[0];
}

// Spawns a fiber that recurses through 1 MiB of stack, twice what a slot
// holds, followed by two idle fibers. If the overflow ran on through
// mapped memory unnoticed, the fiber would get back and exit 0.
void spawn_overflow(Engine& engine) {
  const rlimit no_core{0, 0};
  setrlimit(RLIMIT_CORE, &no_core);  // the death is expected; keep no core
  engine.spawn("overflow", [] {
    (void)deep_frames(1024);
    std::_Exit(0);
  });
  for (int i = 0; i < 2; ++i) {
    engine.spawn("idle", [&engine] { engine.delay(1); });
  }
}

#if defined(__SANITIZE_ADDRESS__)
#define E10_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define E10_TEST_ASAN 1
#endif
#endif

TEST(Engine, StackOverflowFaultsOnTheGuardPage) {
  // The lowest page of every stack slot is PROT_NONE, so running off a
  // fiber's stack faults at the first access below it instead of writing
  // over whatever lies there. ASan reports the fault itself and exits
  // non-zero.
#ifdef E10_TEST_ASAN
  const auto died = [](int status) {
    return !WIFEXITED(status) || WEXITSTATUS(status) != 0;
  };
#else
  const auto died = ::testing::KilledBySignal(SIGSEGV);
#endif
  EXPECT_EXIT(
      {
        // Other fibers' stacks lie on both sides of the overflowing one.
        Engine engine;
        for (int i = 0; i < 2; ++i) {
          engine.spawn("idle", [&engine] { engine.delay(1); });
        }
        spawn_overflow(engine);
        engine.run();
      },
      died, "");
  // A recycled slot keeps its guard page.
  EXPECT_EXIT(
      {
        Engine engine;
        engine.spawn("first", [&engine] { engine.delay(1); });
        engine.run();
        spawn_overflow(engine);
        if (engine.stats().stack_reuses != 1) std::_Exit(0);  // not recycled
        engine.run();
      },
      died, "");
}

TEST(Engine, StackMappingFailureNamesTheLimit) {
  // 2^30 slots are 512 TiB of address space, more than an x86-64 or arm64
  // process has, so the mapping fails; the error names the kernel limit
  // that caps live fibers in practice, and the engine stays usable.
  Engine engine;
  try {
    engine.reserve_processes(std::size_t{1} << 30);
    ADD_FAILURE() << "mapped 512 TiB of fiber stacks";
  } catch (const std::system_error& e) {
    EXPECT_NE(std::string(e.what()).find("vm.max_map_count"),
              std::string::npos)
        << e.what();
  }
  bool ran = false;
  engine.spawn("after", [&ran] { ran = true; });
  engine.run();
  EXPECT_TRUE(ran);
}

TEST(Engine, StackReusesCountPoolHitsOnly) {
  // Fresh slots come from reserve_processes' batches and from default-size
  // ones, in any mix; only a retired slot handed out again is a reuse, and
  // no two live fibers ever share a slot.
  Engine engine;
  int intact = 0;
  const auto spawn_checked = [&](int id) {
    engine.spawn("p" + std::to_string(id), [&engine, &intact, id] {
      volatile int mark[256];
      for (volatile int& m : mark) m = id;
      engine.delay(1);  // every other live fiber runs before this resumes
      bool same = true;
      for (const volatile int& m : mark) same = same && m == id;
      if (same) ++intact;
    });
  };
  engine.reserve_processes(2);
  for (int i = 0; i < 3; ++i) spawn_checked(i);
  engine.reserve_processes(100);  // maps only what the free slots lack
  engine.run();
  EXPECT_EQ(engine.stats().stack_reuses, 0u);
  for (int i = 0; i < 100; ++i) spawn_checked(100 + i);
  engine.run();
  EXPECT_EQ(engine.stats().stack_reuses, 3u);
  for (int i = 0; i < 200; ++i) spawn_checked(200 + i);
  engine.run();
  EXPECT_EQ(engine.stats().stack_reuses, 103u);
  EXPECT_EQ(intact, 303);
}

}  // namespace
}  // namespace e10::sim

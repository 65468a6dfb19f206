// Scheduler equivalence suite: the allocation-free ReadyQueue heap must be
// observationally identical to the seed engine's ordered-map scheduler.
//
// The seed kept runnable processes in a std::map keyed on (time, seq) and
// always resumed *map.begin(); the heap replaces the container but must
// preserve the exact pop order, or virtual-time results silently diverge.
// These tests drive the queue (and the engine built on it) against an
// ordered-map reference under randomized schedules, and pin down the
// cancel/stop_at paths that bypass the normal pop loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/engine.h"
#include "sim/ready_queue.h"

namespace e10::sim {
namespace {

using namespace e10::units;

using Key = std::pair<Time, std::uint64_t>;

TEST(SchedulerEquivalence, RandomizedPushPopMatchesOrderedMapReference) {
  // Interleave pushes and pops at random; every pop must return exactly
  // what the seed's map.begin() would have — same time, same seq, same
  // payload. Heavy time collisions force the seq tie-break constantly.
  for (const std::uint32_t seed : {1u, 7u, 42u, 2016u}) {
    std::mt19937 rng(seed);
    ReadyQueue<int> queue;
    std::map<Key, int> reference;
    std::uint64_t next_seq = 0;
    int next_item = 0;
    for (int step = 0; step < 20000; ++step) {
      const bool push = reference.empty() || rng() % 100 < 55;
      if (push) {
        const Time time = static_cast<Time>(rng() % 50);
        queue.push(time, next_seq, next_item);
        reference.emplace(Key{time, next_seq}, next_item);
        ++next_seq;
        ++next_item;
      } else {
        const auto expected = reference.begin();
        const auto got = queue.pop();
        ASSERT_EQ(got.time, expected->first.first) << "seed " << seed;
        ASSERT_EQ(got.seq, expected->first.second) << "seed " << seed;
        ASSERT_EQ(got.item, expected->second) << "seed " << seed;
        reference.erase(expected);
      }
      ASSERT_EQ(queue.size(), reference.size());
    }
    while (!reference.empty()) {
      const auto expected = reference.begin();
      const auto got = queue.pop();
      ASSERT_EQ(got.time, expected->first.first);
      ASSERT_EQ(got.seq, expected->first.second);
      ASSERT_EQ(got.item, expected->second);
      reference.erase(expected);
    }
    EXPECT_TRUE(queue.empty());
  }
}

TEST(SchedulerEquivalence, PopOrderIndependentOfPushOrder) {
  // The heap's internal layout depends on insertion order; the pop order
  // must not. Push the same key set in shuffled orders and expect the one
  // sorted (time, seq) sequence every time.
  std::vector<Key> keys;
  for (Time t = 0; t < 16; ++t) {
    for (std::uint64_t s = 0; s < 16; ++s) {
      // Unique seqs, many equal times.
      keys.emplace_back(t, static_cast<std::uint64_t>(t) * 100 + s);
    }
  }
  std::vector<Key> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  std::mt19937 rng(3);
  for (int round = 0; round < 10; ++round) {
    std::shuffle(keys.begin(), keys.end(), rng);
    ReadyQueue<int> queue;
    for (const auto& [time, seq] : keys) queue.push(time, seq, 0);
    for (const Key& expected : sorted) {
      const auto got = queue.pop();
      ASSERT_EQ(Key(got.time, got.seq), expected) << "round " << round;
    }
    EXPECT_TRUE(queue.empty());
  }
}

/// One deterministic pseudo-random scenario: `procs` processes, each doing
/// a per-process seeded walk of delays, yields and child spawns. Returns
/// the observed execution trace as (process tag, virtual time) pairs.
std::vector<std::pair<int, Time>> run_scenario(Engine& eng, int procs,
                                               std::uint32_t seed,
                                               std::vector<EngineStats>* out) {
  std::vector<std::pair<int, Time>> trace;
  for (int p = 0; p < procs; ++p) {
    eng.spawn("p" + std::to_string(p), [&eng, &trace, p, seed] {
      std::mt19937 rng(seed * 1000003u + static_cast<std::uint32_t>(p));
      for (int step = 0; step < 40; ++step) {
        trace.emplace_back(p, eng.now());
        switch (rng() % 4) {
          case 0:
            eng.delay(microseconds(static_cast<std::int64_t>(rng() % 7)));
            break;
          case 1:
            eng.yield();
            break;
          case 2:
            eng.delay(0);  // stays runnable at the same time, behind peers
            break;
          case 3: {
            const int child = p * 1000 + step;
            eng.spawn("c" + std::to_string(child), [&eng, &trace, child] {
              trace.emplace_back(child, eng.now());
              eng.delay(microseconds(1));
              trace.emplace_back(child, eng.now());
            });
            break;
          }
        }
      }
      trace.emplace_back(p, eng.now());
    });
  }
  eng.run();
  if (out != nullptr) out->push_back(eng.stats());
  return trace;
}

TEST(SchedulerEquivalence, RandomizedScheduleIsBitIdenticalAcrossRuns) {
  // Same scenario, two engines: the full execution trace — who ran, at
  // which virtual time, in which order — and every scheduler counter must
  // match exactly. This is the determinism contract the bench identity
  // diffs (results/BENCH_engine.json) rely on, at unit-test scale.
  for (const std::uint32_t seed : {5u, 99u, 2016u}) {
    std::vector<EngineStats> stats;
    Engine a;
    const auto trace_a = run_scenario(a, 12, seed, &stats);
    Engine b;
    const auto trace_b = run_scenario(b, 12, seed, &stats);
    ASSERT_EQ(trace_a, trace_b) << "seed " << seed;
    EXPECT_EQ(stats[0].events, stats[1].events);
    EXPECT_EQ(stats[0].switches, stats[1].switches);
    EXPECT_EQ(stats[0].spawned, stats[1].spawned);
    EXPECT_EQ(stats[0].max_ready_depth, stats[1].max_ready_depth);
    EXPECT_EQ(stats[0].stack_reuses, stats[1].stack_reuses);
  }
}

TEST(SchedulerEquivalence, StopAtCancelCutsTheSameTraceEveryTime) {
  // stop_at() drains the ready queue through cancel_all rather than the
  // normal pop loop. The observable contract: the trace up to the deadline
  // is exactly the prefix of the uninterrupted trace, and two stopped runs
  // agree bit-for-bit.
  const std::uint32_t seed = 77;
  Engine full;
  const auto complete = run_scenario(full, 8, seed, nullptr);

  const Time deadline = microseconds(30);
  std::vector<EngineStats> stats;
  Engine a;
  a.stop_at(deadline);
  const auto stopped_a = run_scenario(a, 8, seed, &stats);
  EXPECT_TRUE(a.stopped());
  Engine b;
  b.stop_at(deadline);
  const auto stopped_b = run_scenario(b, 8, seed, &stats);
  ASSERT_EQ(stopped_a, stopped_b);
  EXPECT_EQ(stats[0].events, stats[1].events);
  EXPECT_EQ(stats[0].switches, stats[1].switches);

  ASSERT_LT(stopped_a.size(), complete.size());
  for (std::size_t i = 0; i < stopped_a.size(); ++i) {
    ASSERT_EQ(stopped_a[i], complete[i]) << "divergence at event " << i;
    ASSERT_LT(stopped_a[i].second, deadline);
  }
}

}  // namespace
}  // namespace e10::sim

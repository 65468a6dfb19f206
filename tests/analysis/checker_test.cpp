// The concurrency checker against seeded fixtures (a planted race, a
// planted lock-order inversion), clean lock disciplines, the full MPI-IO
// stack in coherent cache mode, and its determinism guarantee.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "analysis/checker.h"
#include "common/units.h"
#include "mpiio/file.h"
#include "sim/concurrency.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "workloads/testbed.h"

namespace e10::analysis {
namespace {

using namespace e10::units;
using sim::Engine;
using sim::MonitorGuard;
using sim::SharedVar;
using sim::SimLock;
using sim::SimMutex;

// ---- Fixture 1: a seeded unsynchronized access ----------------------------

TEST(ConcurrencyChecker_, FlagsUnsynchronizedSharedWrite) {
  Engine engine;
  ConcurrencyChecker checker(engine);
  SharedVar counter(engine, "fixture.counter");
  engine.spawn("writer-a", [&] {
    E10_SHARED_WRITE(counter);
    engine.delay(milliseconds(1));
    E10_SHARED_WRITE(counter);
  });
  engine.spawn("writer-b", [&] {
    engine.delay(microseconds(500));
    E10_SHARED_WRITE(counter);  // no lock in common with writer-a
  });
  engine.run();

  const AnalysisSummary s = checker.summary();
  // Findings dedupe per (variable, site): writer-b's access flags the race,
  // and writer-a's later write from its own (distinct) site flags once too.
  ASSERT_EQ(s.races.size(), 2u);
  const RaceFinding& race = s.races[0];
  EXPECT_EQ(race.var, "fixture.counter");
  EXPECT_EQ(race.process, "writer-b");
  EXPECT_EQ(race.prior_process, "writer-a");
  EXPECT_TRUE(race.write);
  // Both access sites are named, and they are distinct lines of this file.
  EXPECT_NE(race.site.find("checker_test.cpp"), std::string::npos);
  EXPECT_NE(race.prior_site.find("checker_test.cpp"), std::string::npos);
  EXPECT_NE(race.site, race.prior_site);
  EXPECT_EQ(race.at, microseconds(500));
  EXPECT_TRUE(s.cycles.empty());
}

TEST(ConcurrencyChecker_, ReadOnlySharingIsNotARace) {
  Engine engine;
  ConcurrencyChecker checker(engine);
  SharedVar table(engine, "fixture.table");
  engine.spawn("init", [&] { E10_SHARED_WRITE(table); });
  for (int i = 0; i < 3; ++i) {
    engine.spawn("reader-" + std::to_string(i), [&] {
      engine.delay(milliseconds(1));
      E10_SHARED_READ(table);
    });
  }
  engine.run();
  EXPECT_TRUE(checker.summary().races.empty());
}

TEST(ConcurrencyChecker_, ConsistentLockingIsClean) {
  Engine engine;
  ConcurrencyChecker checker(engine);
  SimMutex mutex(engine, "fixture.mutex");
  SharedVar counter(engine, "fixture.counter");
  for (int i = 0; i < 4; ++i) {
    engine.spawn("worker-" + std::to_string(i), [&] {
      for (int round = 0; round < 3; ++round) {
        const SimLock lock(mutex);
        E10_SHARED_WRITE(counter);
        engine.delay(microseconds(100));
      }
    });
  }
  engine.run();
  const AnalysisSummary s = checker.summary();
  EXPECT_TRUE(s.races.empty());
  EXPECT_TRUE(s.cycles.empty());
  EXPECT_GE(s.lock_acquisitions, 12u);
}

TEST(ConcurrencyChecker_, MonitorCountsTowardLocksets) {
  Engine engine;
  ConcurrencyChecker checker(engine);
  int guarded_object = 0;
  SharedVar var(engine, "fixture.monitored");
  for (int i = 0; i < 2; ++i) {
    engine.spawn("poster-" + std::to_string(i), [&, i] {
      engine.delay(microseconds(10 * (i + 1)));
      const MonitorGuard monitor(engine, &guarded_object, "fixture.monitor");
      E10_SHARED_WRITE(var);
    });
  }
  engine.run();
  EXPECT_TRUE(checker.summary().races.empty());
}

TEST(ConcurrencyChecker_, ReusedAddressIsANewObject) {
  // Objects built one after another in the same storage share an address;
  // each still counts as its own variable and lock, so the report's counts
  // do not depend on heap layout.
  Engine engine;
  ConcurrencyChecker checker(engine);
  std::optional<SharedVar> var;
  std::optional<SimMutex> mutex;
  engine.spawn("user", [&] {
    for (int i = 0; i < 2; ++i) {
      var.emplace(engine, "fixture.var");
      mutex.emplace(engine, "fixture.mutex");
      {
        const SimLock lock(*mutex);
        E10_SHARED_WRITE(*var);
      }
      var.reset();
      mutex.reset();
    }
  });
  engine.run();
  const AnalysisSummary s = checker.summary();
  EXPECT_EQ(s.shared_vars, 2u);
  EXPECT_EQ(s.locks_tracked, 2u);
  EXPECT_TRUE(s.races.empty());
}

// ---- Fixture 2: a seeded AB/BA lock-order inversion -----------------------

TEST(ConcurrencyChecker_, FlagsLockOrderInversionOnCompletingRun) {
  Engine engine;
  ConcurrencyChecker checker(engine);
  SimMutex a(engine, "fixture.A");
  SimMutex b(engine, "fixture.B");
  engine.spawn("ab", [&] {
    const SimLock first(a);
    const SimLock second(b);
  });
  engine.spawn("ba", [&] {
    // Runs strictly after "ab" released both locks: the schedule completes,
    // the inversion is still a potential deadlock and must be reported.
    engine.delay(milliseconds(1));
    const SimLock first(b);
    const SimLock second(a);
  });
  engine.run();  // completes — no actual deadlock on this schedule

  const AnalysisSummary s = checker.summary();
  ASSERT_EQ(s.cycles.size(), 1u);
  const CycleFinding& cycle = s.cycles[0];
  ASSERT_EQ(cycle.locks.size(), 2u);
  EXPECT_EQ(cycle.locks[0], "fixture.A");
  EXPECT_EQ(cycle.locks[1], "fixture.B");
  ASSERT_EQ(cycle.edges.size(), 2u);
  EXPECT_NE(cycle.edges[0].find("fixture.A -> fixture.B by ab"),
            std::string::npos);
  EXPECT_NE(cycle.edges[1].find("fixture.B -> fixture.A by ba"),
            std::string::npos);
  EXPECT_TRUE(s.races.empty());
  EXPECT_EQ(s.max_lock_depth, 2u);
}

TEST(ConcurrencyChecker_, ConsistentNestingHasNoCycles) {
  Engine engine;
  ConcurrencyChecker checker(engine);
  SimMutex a(engine, "fixture.A");
  SimMutex b(engine, "fixture.B");
  for (int i = 0; i < 2; ++i) {
    engine.spawn("nested-" + std::to_string(i), [&] {
      const SimLock first(a);
      engine.delay(microseconds(50));
      const SimLock second(b);
    });
  }
  engine.run();
  const AnalysisSummary s = checker.summary();
  EXPECT_TRUE(s.cycles.empty());
  EXPECT_EQ(s.max_lock_depth, 2u);
}

TEST(ConcurrencyChecker_, MonitorsAreExcludedFromTheOrderGraph) {
  Engine engine;
  ConcurrencyChecker checker(engine);
  SimMutex a(engine, "fixture.A");
  int object = 0;
  // monitor -> A in one process, A -> monitor in the other: would be a
  // cycle if monitors ordered, but monitors cannot block.
  engine.spawn("m-then-a", [&] {
    const MonitorGuard monitor(engine, &object, "fixture.monitor");
    const SimLock lock(a);
  });
  engine.spawn("a-then-m", [&] {
    engine.delay(milliseconds(1));
    const SimLock lock(a);
    const MonitorGuard monitor(engine, &object, "fixture.monitor");
  });
  engine.run();
  EXPECT_TRUE(checker.summary().cycles.empty());
}

// ---- Enriched deadlock reports --------------------------------------------

TEST(ConcurrencyChecker_, DeadlockErrorNamesHeldAndWantedLocks) {
  Engine engine;
  ConcurrencyChecker checker(engine);
  SimMutex a(engine, "fixture.A");
  SimMutex b(engine, "fixture.B");
  engine.spawn("ab", [&] {
    const SimLock first(a);
    engine.delay(milliseconds(1));
    const SimLock second(b);
  });
  engine.spawn("ba", [&] {
    const SimLock first(b);
    engine.delay(milliseconds(1));
    const SimLock second(a);
  });
  try {
    engine.run();
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("ab blocked on"), std::string::npos) << what;
    EXPECT_NE(what.find("at t=1.00 ms"), std::string::npos) << what;
    EXPECT_NE(what.find("holding {fixture.A}"), std::string::npos) << what;
    EXPECT_NE(what.find("acquiring mutex fixture.B"), std::string::npos)
        << what;
    EXPECT_NE(what.find("holding {fixture.B}"), std::string::npos) << what;
  }
  // The inversion is also in the order graph.
  EXPECT_EQ(checker.summary().cycles.size(), 1u);
}

// ---- Fixture 3: the real pipeline is clean --------------------------------

mpi::Info coherent_cached_info() {
  mpi::Info info;
  info.set("romio_cb_write", "enable");
  info.set("cb_buffer_size", "262144");
  info.set("e10_cache", "coherent");
  info.set("e10_cache_path", "/scratch");
  info.set("e10_cache_flush_flag", "flush_immediate");
  info.set("e10_cache_discard_flag", "enable");
  info.set("ind_wr_buffer_size", "524288");
  return info;
}

void run_coherent_collective_write(workloads::Platform& p) {
  constexpr Offset kBlock = 32 * KiB;
  p.launch([&](mpi::Comm comm) {
    auto file = mpiio::File::open(p.ctx, comm, "/pfs/checked",
                                  adio::amode::create | adio::amode::rdwr,
                                  coherent_cached_info());
    ASSERT_TRUE(file.is_ok());
    std::vector<mpi::IoPiece> pieces;
    for (int b = 0; b < 4; ++b) {
      const Offset off = (b * comm.size() + comm.rank()) * kBlock;
      pieces.push_back(
          mpi::IoPiece{Extent{off, kBlock}, DataView::synthetic(7, off, kBlock)});
    }
    ASSERT_TRUE(adio::write_strided_coll(*file.value().raw(), pieces));
    ASSERT_TRUE(file.value().close());
  });
  p.run();
}

TEST(ConcurrencyChecker_, CoherentCollectiveWriteIsClean) {
  workloads::Platform p(workloads::small_testbed());
  ConcurrencyChecker checker(p.engine);
  run_coherent_collective_write(p);

  const AnalysisSummary s = checker.summary();
  EXPECT_EQ(s.races.size(), 0u) << checker.to_json().dump(2);
  EXPECT_EQ(s.cycles.size(), 0u) << checker.to_json().dump(2);
  // The run exercised the instrumented stack for real: extent locks,
  // monitors and registered shared state all reported.
  EXPECT_GT(s.shared_vars, 8u);
  EXPECT_GT(s.shared_accesses, 50u);
  EXPECT_GT(s.lock_acquisitions, 50u);
  EXPECT_GE(s.max_lock_depth, 1u);
}

// ---- Determinism ----------------------------------------------------------

std::string seeded_scenario_report() {
  Engine engine;
  ConcurrencyChecker checker(engine);
  SimMutex a(engine, "fixture.A");
  SimMutex b(engine, "fixture.B");
  SharedVar counter(engine, "fixture.counter");
  engine.spawn("ab", [&] {
    const SimLock first(a);
    const SimLock second(b);
    E10_SHARED_WRITE(counter);
  });
  engine.spawn("ba", [&] {
    engine.delay(milliseconds(1));
    const SimLock first(b);
    const SimLock second(a);
    E10_SHARED_WRITE(counter);
  });
  engine.spawn("rogue", [&] {
    engine.delay(milliseconds(2));
    E10_SHARED_WRITE(counter);  // races: holds neither A nor B
  });
  engine.run();
  return checker.to_json().dump(2);
}

TEST(ConcurrencyChecker_, SeededScenarioReportIsByteIdentical) {
  const std::string first = seeded_scenario_report();
  const std::string second = seeded_scenario_report();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // The scenario has both planted findings.
  EXPECT_NE(first.find("\"races_found\": 1"), std::string::npos) << first;
  EXPECT_NE(first.find("\"cycles_found\": 1"), std::string::npos) << first;
}

std::string full_stack_report() {
  workloads::Platform p(workloads::small_testbed());
  ConcurrencyChecker checker(p.engine);
  run_coherent_collective_write(p);
  return checker.to_json().dump(2);
}

TEST(ConcurrencyChecker_, FullStackReportIsByteIdentical) {
  EXPECT_EQ(full_stack_report(), full_stack_report());
}

}  // namespace
}  // namespace e10::analysis

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "common/units.h"
#include "mpi/world.h"

namespace e10::mpi {
namespace {

using namespace e10::units;

struct Fixture {
  Fixture(std::size_t nodes, std::size_t ppn)
      : fabric(nodes, net::FabricParams{}),
        world(engine, fabric, Topology(nodes, ppn)) {}
  sim::Engine engine;
  net::Fabric fabric;
  World world;
};

TEST(Collectives, BarrierSynchronizesToSlowest) {
  Fixture f(4, 1);
  std::vector<Time> leave(4, -1);
  f.world.launch([&](Comm comm) {
    comm.engine().delay(seconds(comm.rank() + 1));
    comm.barrier();
    leave[static_cast<std::size_t>(comm.rank())] = comm.engine().now();
  });
  f.engine.run();
  for (const Time t : leave) {
    EXPECT_GE(t, seconds(4));  // slowest rank arrived at 4 s
    EXPECT_LT(t, seconds(4) + milliseconds(1));
  }
}

TEST(Collectives, AllreduceMaxAndSum) {
  Fixture f(8, 1);
  std::vector<Offset> maxes(8), sums(8);
  f.world.launch([&](Comm comm) {
    const Offset mine = comm.rank() * 10;
    maxes[static_cast<std::size_t>(comm.rank())] = comm.allreduce(
        mine, [](Offset a, Offset b) { return std::max(a, b); });
    sums[static_cast<std::size_t>(comm.rank())] =
        comm.allreduce(mine, [](Offset a, Offset b) { return a + b; });
  });
  f.engine.run();
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(maxes[static_cast<std::size_t>(r)], 70);
    EXPECT_EQ(sums[static_cast<std::size_t>(r)], 280);
  }
}

TEST(Collectives, AllreduceFoldsOncePerOperation) {
  // Each operation reduces its p contributions once, in rank order: p - 1
  // invocations of `op` per operation, not p - 1 on every rank. The op is
  // not commutative, so the digits also show the order.
  Fixture f(4, 2);  // 8 ranks
  int world_calls = 0;
  int split_calls = 0;
  std::vector<Offset> digits(8), split_digits(8);
  f.world.launch([&](Comm comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    for (int i = 0; i < 3; ++i) {
      digits[r] = comm.allreduce(Offset{comm.rank()}, [&](Offset a, Offset b) {
        ++world_calls;
        return a * 10 + b;
      });
    }
    const Comm half = comm.split(comm.rank() % 2, comm.rank());
    split_digits[r] =
        half.allreduce(Offset{comm.rank()}, [&](Offset a, Offset b) {
          ++split_calls;
          return a * 10 + b;
        });
  });
  f.engine.run();
  EXPECT_EQ(world_calls, 3 * 7);
  EXPECT_EQ(split_calls, 2 * 3);  // two 4-rank halves, one operation each
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_EQ(digits[r], 1234567);
    EXPECT_EQ(split_digits[r], r % 2 == 0 ? 246 : 1357);
  }
}

TEST(Collectives, AllgatherFoldRunsOnce) {
  Fixture f(4, 2);  // 8 ranks
  constexpr std::size_t kOps = 3;
  int folds = 0;
  std::vector<std::vector<std::shared_ptr<const std::vector<int>>>> got(
      kOps, std::vector<std::shared_ptr<const std::vector<int>>>(8));
  f.world.launch([&](Comm comm) {
    for (std::size_t op = 0; op < kOps; ++op) {
      got[op][static_cast<std::size_t>(comm.rank())] = comm.allgather_fold(
          comm.rank() * 10 + static_cast<int>(op),
          [&folds](const std::vector<int>& all) {
            ++folds;
            return all;
          });
    }
  });
  f.engine.run();
  EXPECT_EQ(folds, static_cast<int>(kOps));
  for (std::size_t op = 0; op < kOps; ++op) {
    ASSERT_NE(got[op][0], nullptr);
    std::vector<int> expected;
    for (int r = 0; r < 8; ++r) {
      expected.push_back(r * 10 + static_cast<int>(op));
    }
    EXPECT_EQ(*got[op][0], expected);
    for (const auto& result : got[op]) {
      EXPECT_EQ(result.get(), got[op][0].get());
    }
  }
  EXPECT_NE(got[0][0].get(), got[1][0].get());

  // Ranks that fold one operation to different result types are a
  // mismatched collective.
  Fixture mismatched(2, 1);
  mismatched.world.launch([&](Comm comm) {
    if (comm.rank() == 0) {
      (void)comm.allgather_fold(
          1, [](const std::vector<int>& all) { return all.size(); });
    } else {
      (void)comm.allgather_fold(1, [](const std::vector<int>& all) {
        return static_cast<int>(all.size());
      });
    }
  });
  EXPECT_THROW(mismatched.engine.run(), std::logic_error);
}

TEST(Collectives, AllgatherOrderedByRank) {
  Fixture f(4, 2);
  std::vector<std::vector<int>> results(8);
  f.world.launch([&](Comm comm) {
    results[static_cast<std::size_t>(comm.rank())] =
        comm.allgather(comm.rank() * comm.rank());
  });
  f.engine.run();
  for (const auto& v : results) {
    ASSERT_EQ(v.size(), 8u);
    for (int r = 0; r < 8; ++r) EXPECT_EQ(v[static_cast<std::size_t>(r)], r * r);
  }
}

TEST(Collectives, AlltoallTransposes) {
  Fixture f(4, 1);
  std::vector<std::vector<std::pair<int, int>>> results(4);
  f.world.launch([&](Comm comm) {
    // Rank r sends value 100*r + d to rank d, listing destinations in
    // descending order.
    std::vector<std::pair<int, int>> send;
    for (int d = 3; d >= 0; --d) send.emplace_back(d, 100 * comm.rank() + d);
    results[static_cast<std::size_t>(comm.rank())] =
        comm.alltoall(std::move(send));
  });
  f.engine.run();
  for (int r = 0; r < 4; ++r) {
    std::vector<std::pair<int, int>> expected;
    for (int s = 0; s < 4; ++s) expected.emplace_back(s, 100 * s + r);
    EXPECT_EQ(results[static_cast<std::size_t>(r)], expected);
  }
}

TEST(Collectives, AlltoallIsSparse) {
  // Ranks 0-6 each address two of ranks 0-6; rank 7 sends nothing and
  // nobody addresses it.
  Fixture f(4, 2);  // 8 ranks
  const auto destinations = [](int r) -> std::vector<int> {
    if (r == 7) return {};
    return {(r + 3) % 7, (r + 1) % 7};
  };
  std::vector<std::vector<std::pair<int, Offset>>> results(8);
  f.world.launch([&](Comm comm) {
    std::vector<std::pair<int, Offset>> send;
    for (const int d : destinations(comm.rank())) {
      send.emplace_back(d, Offset{10 * comm.rank() + d});
    }
    results[static_cast<std::size_t>(comm.rank())] =
        comm.alltoall(std::move(send));
  });
  f.engine.run();
  for (int r = 0; r < 8; ++r) {
    std::vector<std::pair<int, Offset>> expected;
    for (int s = 0; s < 8; ++s) {
      for (const int d : destinations(s)) {
        if (d == r) expected.emplace_back(s, Offset{10 * s + r});
      }
    }
    EXPECT_EQ(results[static_cast<std::size_t>(r)], expected) << "rank " << r;
  }
  EXPECT_EQ(results[1].size(), 2u);
  EXPECT_TRUE(results[7].empty());
}

TEST(Collectives, AlltoallRejectsBadInput) {
  for (const int bad : {-1, 4}) {
    Fixture f(4, 1);
    f.world.launch([bad](Comm comm) {
      std::vector<std::pair<int, int>> send;
      if (comm.rank() == 2) send.emplace_back(bad, 1);
      (void)comm.alltoall(std::move(send));
    });
    EXPECT_THROW(f.engine.run(), std::logic_error) << "destination " << bad;
  }

  // Ranks that send one operation different value types.
  Fixture types(2, 1);
  types.world.launch([](Comm comm) {
    if (comm.rank() == 0) {
      (void)comm.alltoall(std::vector<std::pair<int, int>>{{1, 1}});
    } else {
      (void)comm.alltoall(std::vector<std::pair<int, Offset>>{{0, 1}});
    }
  });
  EXPECT_THROW(types.engine.run(), std::logic_error);

  // An alltoall and an allgather at the same step.
  Fixture kinds(2, 1);
  kinds.world.launch([](Comm comm) {
    if (comm.rank() == 0) {
      (void)comm.alltoall(std::vector<std::pair<int, int>>{{1, 1}});
    } else {
      (void)comm.allgather(1);
    }
  });
  EXPECT_THROW(kinds.engine.run(), std::logic_error);
}

TEST(Collectives, MismatchedValueTypesThrowLogicError) {
  // Ranks that contribute one allgather, allreduce or bcast different value
  // types are a mismatched collective, whichever rank reads first.
  const auto mismatched = [](const std::function<void(Comm)>& body) {
    Fixture f(2, 1);
    f.world.launch(body);
    EXPECT_THROW(f.engine.run(), std::logic_error);
  };
  mismatched([](Comm comm) {
    if (comm.rank() == 0) {
      (void)comm.allgather(1);
    } else {
      (void)comm.allgather(1.0);
    }
  });
  mismatched([](Comm comm) {
    if (comm.rank() == 0) {
      (void)comm.allreduce(1, std::plus<>());
    } else {
      (void)comm.allreduce(Offset{1}, std::plus<>());
    }
  });
  mismatched([](Comm comm) {
    if (comm.rank() == 0) {
      (void)comm.bcast(1, /*root=*/0);
    } else {
      (void)comm.bcast(1.0, /*root=*/0);
    }
  });
}

TEST(Collectives, AlltoallCostIsTheDenseCost) {
  // Every rank is charged a dense alltoall's bytes_each * p, so the release
  // time does not depend on how many pairs anybody sends: none, all p, or
  // a different count on every rank.
  constexpr int kRanks = 8;
  constexpr Offset kBytesEach = 4 * KiB;
  const MpiParams params;
  const Time cost =
      3 * params.coll_alpha +  // ceil(log2 8) tree stages
      static_cast<Time>(static_cast<double>(kBytesEach * kRanks) * 1e9 /
                        static_cast<double>(params.coll_bytes_per_second));
  // Operation 0: nobody sends; 1: everybody sends p pairs; 2: rank r
  // sends r pairs.
  constexpr int kOps = 3;
  const auto pairs_sent = [](int op, int rank) {
    return op == 0 ? 0 : op == 1 ? kRanks : rank;
  };
  Fixture f(4, 2);
  std::vector<std::vector<Time>> leave(kOps, std::vector<Time>(kRanks, -1));
  f.world.launch([&](Comm comm) {
    for (int op = 0; op < kOps; ++op) {
      std::vector<std::pair<int, Offset>> send;
      for (int d = 0; d < pairs_sent(op, comm.rank()); ++d) {
        send.emplace_back(d, Offset{1});
      }
      (void)comm.alltoall(std::move(send), kBytesEach);
      leave[static_cast<std::size_t>(op)][static_cast<std::size_t>(
          comm.rank())] = comm.engine().now();
    }
  });
  f.engine.run();
  for (int op = 0; op < kOps; ++op) {
    for (const Time t : leave[static_cast<std::size_t>(op)]) {
      EXPECT_EQ(t, (op + 1) * cost) << "operation " << op;
    }
  }
}

/// Counts its copies; moves are free.
struct Counted {
  static inline int copies = 0;
  explicit Counted(int v) : value(v) {}
  Counted(const Counted& other) : value(other.value) { ++copies; }
  Counted(Counted&&) noexcept = default;
  Counted& operator=(const Counted& other) {
    value = other.value;
    ++copies;
    return *this;
  }
  Counted& operator=(Counted&&) noexcept = default;
  int value = 0;
};

TEST(Collectives, AlltoallTransposesOncePerOperation) {
  // A dense exchange of p * p pairs: building the transpose copies each
  // pair once, and each rank copies its own row out once. Reading every
  // rank's contributions on every rank would copy p times as many.
  constexpr int kRanks = 8;
  constexpr int kOps = 3;
  Counted::copies = 0;
  Fixture f(4, 2);
  std::vector<std::vector<int>> got(kRanks);
  f.world.launch([&](Comm comm) {
    for (int op = 0; op < kOps; ++op) {
      std::vector<std::pair<int, Counted>> send;
      for (int d = 0; d < kRanks; ++d) {
        send.emplace_back(d, Counted(100 * comm.rank() + d));
      }
      auto& mine = got[static_cast<std::size_t>(comm.rank())];
      mine.clear();
      for (const auto& [src, value] : comm.alltoall(std::move(send))) {
        mine.push_back(value.value);
      }
    }
  });
  f.engine.run();
  EXPECT_LE(Counted::copies, kOps * 2 * kRanks * kRanks);
  for (int r = 0; r < kRanks; ++r) {
    std::vector<int> expected;
    for (int s = 0; s < kRanks; ++s) expected.push_back(100 * s + r);
    EXPECT_EQ(got[static_cast<std::size_t>(r)], expected);
  }
}

TEST(Collectives, BcastDeliversRootValue) {
  Fixture f(4, 1);
  std::vector<std::string> results(4);
  f.world.launch([&](Comm comm) {
    const std::string mine =
        comm.rank() == 2 ? std::string("root-data") : std::string("junk");
    results[static_cast<std::size_t>(comm.rank())] =
        comm.bcast(mine, /*root=*/2, 9);
  });
  f.engine.run();
  for (const auto& s : results) EXPECT_EQ(s, "root-data");
}

TEST(Collectives, GatherOnlyRootReceives) {
  Fixture f(4, 1);
  std::vector<std::vector<int>> results(4);
  f.world.launch([&](Comm comm) {
    results[static_cast<std::size_t>(comm.rank())] =
        comm.gather(comm.rank() + 1, /*root=*/0);
  });
  f.engine.run();
  EXPECT_EQ(results[0], (std::vector<int>{1, 2, 3, 4}));
  for (int r = 1; r < 4; ++r) {
    EXPECT_TRUE(results[static_cast<std::size_t>(r)].empty());
  }
}

TEST(Collectives, ReduceOnlyRootGetsValue) {
  Fixture f(4, 1);
  std::vector<int> results(4, -1);
  f.world.launch([&](Comm comm) {
    results[static_cast<std::size_t>(comm.rank())] = comm.reduce(
        comm.rank() + 1, [](int a, int b) { return a + b; }, /*root=*/3);
  });
  f.engine.run();
  EXPECT_EQ(results[3], 10);
  EXPECT_EQ(results[0], 0);  // non-roots get a default value
}

TEST(Collectives, LargerPayloadCostsMore) {
  auto barrier_like_cost = [](Offset bytes) {
    Fixture f(16, 1);
    Time done = 0;
    f.world.launch([&, bytes](Comm comm) {
      (void)comm.allreduce(Offset{1}, [](Offset a, Offset b) { return a + b; },
                           bytes);
      if (comm.rank() == 0) done = comm.engine().now();
    });
    f.engine.run();
    return done;
  };
  EXPECT_GT(barrier_like_cost(4 * MiB), barrier_like_cost(8));
}

TEST(Collectives, MismatchedCollectivesThrow) {
  Fixture f(2, 1);
  f.world.launch([&](Comm comm) {
    if (comm.rank() == 0) {
      comm.barrier();
    } else {
      (void)comm.allgather(1);
    }
  });
  EXPECT_THROW(f.engine.run(), std::logic_error);
}

TEST(Collectives, RepeatedBarriersStayMatched) {
  Fixture f(3, 1);
  std::vector<int> rounds(3, 0);
  f.world.launch([&](Comm comm) {
    for (int i = 0; i < 10; ++i) {
      comm.engine().delay(microseconds(comm.rank() * 7 + 1));
      comm.barrier();
      ++rounds[static_cast<std::size_t>(comm.rank())];
    }
  });
  f.engine.run();
  EXPECT_EQ(rounds, (std::vector<int>{10, 10, 10}));
}

TEST(CommSplit, GroupsByColor) {
  Fixture f(4, 2);  // 8 ranks
  std::vector<int> new_rank(8, -9);
  std::vector<int> new_size(8, -9);
  f.world.launch([&](Comm comm) {
    const int color = comm.rank() % 2;
    const Comm sub = comm.split(color, comm.rank());
    new_rank[static_cast<std::size_t>(comm.rank())] = sub.rank();
    new_size[static_cast<std::size_t>(comm.rank())] = sub.size();
    // Sub-communicator collectives only involve the group.
    const auto members = sub.allgather(comm.rank());
    for (const int m : members) EXPECT_EQ(m % 2, color);
  });
  f.engine.run();
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(new_size[static_cast<std::size_t>(r)], 4);
    EXPECT_EQ(new_rank[static_cast<std::size_t>(r)], r / 2);
  }
}

TEST(CommSplit, KeyControlsOrdering) {
  Fixture f(4, 1);
  std::vector<int> new_rank(4, -1);
  f.world.launch([&](Comm comm) {
    // Reverse ordering via key.
    const Comm sub = comm.split(0, comm.size() - comm.rank());
    new_rank[static_cast<std::size_t>(comm.rank())] = sub.rank();
  });
  f.engine.run();
  EXPECT_EQ(new_rank, (std::vector<int>{3, 2, 1, 0}));
}

TEST(CommSplit, NegativeColorExcluded) {
  Fixture f(4, 1);
  int excluded = 0;
  f.world.launch([&](Comm comm) {
    const Comm sub = comm.split(comm.rank() == 0 ? -1 : 0, 0);
    if (!sub.valid()) ++excluded;
  });
  f.engine.run();
  EXPECT_EQ(excluded, 1);
}

TEST(CommDup, IndependentMatchingContext) {
  Fixture f(2, 1);
  int got = 0;
  f.world.launch([&](Comm comm) {
    const Comm dup = comm.dup();
    if (comm.rank() == 0) {
      comm.send(1, 0, 111, 4);
      dup.send(1, 0, 222, 4);
    } else {
      // Receive on dup first: must get the dup message, not the world one.
      got = dup.recv(0, 0).payload.take<int>();
      (void)comm.recv(0, 0);
    }
  });
  f.engine.run();
  EXPECT_EQ(got, 222);
}

}  // namespace
}  // namespace e10::mpi

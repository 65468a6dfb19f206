#include <gtest/gtest.h>

#include <vector>

#include "mpi/world.h"

namespace e10::mpi {
namespace {

TEST(Topology, BlockPlacement) {
  const Topology t(4, 8);
  EXPECT_EQ(t.ranks(), 32u);
  EXPECT_EQ(t.node_of(0), 0u);
  EXPECT_EQ(t.node_of(7), 0u);
  EXPECT_EQ(t.node_of(8), 1u);
  EXPECT_EQ(t.node_of(31), 3u);
  EXPECT_THROW((void)t.node_of(32), std::logic_error);
  EXPECT_THROW((void)t.node_of(-1), std::logic_error);
}

TEST(Topology, RanksOnNode) {
  sim::Engine engine;
  net::Fabric fabric(2, net::FabricParams{});
  World world(engine, fabric, Topology(2, 3));
  const Comm comm = world.comm(0);
  EXPECT_EQ(comm.node_ranks(1), (std::vector<int>{3, 4, 5}));
  EXPECT_TRUE(comm.node_ranks(2).empty());
}

TEST(Topology, ZeroSizesThrow) {
  EXPECT_THROW(Topology(0, 1), std::logic_error);
  EXPECT_THROW(Topology(1, 0), std::logic_error);
}

TEST(World, LaunchRunsEveryRank) {
  sim::Engine engine;
  net::Fabric fabric(4, net::FabricParams{});
  World world(engine, fabric, Topology(4, 4));
  std::vector<bool> ran(16, false);
  world.launch([&](Comm comm) {
    EXPECT_EQ(comm.size(), 16);
    EXPECT_EQ(comm.node(), comm.node_of(comm.rank()));
    ran[static_cast<std::size_t>(comm.rank())] = true;
  });
  engine.run();
  for (const bool r : ran) EXPECT_TRUE(r);
}

TEST(World, CommForRankOutOfRangeThrows) {
  sim::Engine engine;
  net::Fabric fabric(1, net::FabricParams{});
  World world(engine, fabric, Topology(1, 2));
  EXPECT_THROW(world.comm(2), std::logic_error);
  EXPECT_THROW(world.comm(-1), std::logic_error);
}

TEST(World, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Engine engine;
    net::Fabric fabric(8, net::FabricParams{});
    World world(engine, fabric, Topology(8, 4));
    std::vector<Time> finish(32);
    world.launch([&](Comm comm) {
      for (int i = 0; i < 3; ++i) {
        comm.engine().delay(units::microseconds((comm.rank() * 13) % 17));
        comm.barrier();
        if (comm.rank() % 2 == 0 && comm.rank() + 1 < comm.size()) {
          comm.send(comm.rank() + 1, i, comm.rank(), 1024);
        } else if (comm.rank() % 2 == 1) {
          (void)comm.recv(comm.rank() - 1, i);
        }
      }
      finish[static_cast<std::size_t>(comm.rank())] = comm.engine().now();
    });
    engine.run();
    return finish;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace e10::mpi

// Node-leader and node-membership lookups behind the two-level aggregation
// protocol (docs/two_level.md). Each communicator builds its node table once;
// it must agree with a brute-force scan of node_of, for block placement and
// for the interleaved, sparse and duplicated communicators split and dup
// make.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mpi/world.h"

namespace e10::mpi {
namespace {

/// A world communicator over `topology`, with the engine and fabric it
/// runs on.
struct WorldOf {
  explicit WorldOf(const Topology& topology)
      : fabric(topology.nodes(), net::FabricParams{}),
        world(engine, fabric, topology) {}
  sim::Engine engine;
  net::Fabric fabric;
  World world;
};

TEST(Topology, NodeLeaderIsLowestRankOnNode) {
  const WorldOf w(Topology(4, 8));
  const Comm comm = w.world.comm(0);
  EXPECT_EQ(comm.node_leader(0), 0);
  EXPECT_EQ(comm.node_leader(7), 0);
  EXPECT_EQ(comm.node_leader(8), 8);
  EXPECT_EQ(comm.node_leader(15), 8);
  EXPECT_EQ(comm.node_leader(31), 24);
  EXPECT_THROW((void)comm.node_leader(32), std::logic_error);
  EXPECT_THROW((void)comm.leader_index(-1), std::logic_error);
}

TEST(Topology, NodeLeaderSingleRankPerNodeIsSelf) {
  const WorldOf w(Topology(4, 1));
  const Comm comm = w.world.comm(0);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(comm.node_leader(r), r);
  EXPECT_EQ(comm.max_ranks_per_node(), 1u);
}

TEST(Topology, NodeRanksListsNodeInRankOrder) {
  const Topology t(3, 4);
  const WorldOf w(t);
  const Comm comm = w.world.comm(0);
  EXPECT_EQ(comm.node_ranks(0), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(comm.node_ranks(2), (std::vector<int>{8, 9, 10, 11}));
  EXPECT_TRUE(comm.node_ranks(3).empty());
  // Every node's first listed rank is its leader.
  for (std::size_t node = 0; node < t.nodes(); ++node) {
    const std::vector<int>& ranks = comm.node_ranks(node);
    EXPECT_EQ(ranks.front(), comm.node_leader(ranks.front()));
    for (const int r : ranks) {
      EXPECT_EQ(t.node_of(r), node);
      EXPECT_EQ(comm.node_leader(r), ranks.front());
    }
  }
}

/// Checks `comm`'s node table against a scan of node_of over every node of
/// a `fabric_nodes`-node fabric.
void expect_table_matches_scan(const Comm& comm, std::size_t fabric_nodes) {
  std::vector<int> leaders;
  std::size_t max_ranks = 0;
  std::size_t groups = 0;
  for (std::size_t node = 0; node < fabric_nodes; ++node) {
    std::vector<int> members;
    for (int r = 0; r < comm.size(); ++r) {
      if (comm.node_of(r) == node) members.push_back(r);
    }
    EXPECT_EQ(comm.node_ranks(node), members) << "node " << node;
    max_ranks = std::max(max_ranks, members.size());
    if (members.empty()) continue;
    for (const int r : members) EXPECT_EQ(comm.node_leader(r), members.front());
    leaders.push_back(members.front());
    // Node groups ascend by node id and skip unused nodes.
    ASSERT_LT(groups, comm.node_groups().size());
    EXPECT_EQ(comm.node_groups()[groups].node, node);
    EXPECT_EQ(comm.node_groups()[groups].ranks, members);
    ++groups;
  }
  EXPECT_EQ(comm.node_groups().size(), groups);
  EXPECT_EQ(comm.max_ranks_per_node(), max_ranks);
  std::sort(leaders.begin(), leaders.end());
  EXPECT_EQ(comm.node_leaders(), leaders);
  for (int r = 0; r < comm.size(); ++r) {
    EXPECT_EQ(leaders[comm.leader_index(r)], comm.node_leader(r)) << r;
  }
}

/// On 2 nodes x 8 ranks: new rank k sits on node k % 2, so the node groups
/// interleave in rank order.
Comm interleaved_split(const Comm& world) {
  return world.split(0, (world.rank() % 8) * 2 + world.rank() / 8);
}

/// On 4 nodes x 4 ranks: node 1 and rank 14 drop out and the order
/// reverses. Node ids are sparse, nodes hold 4, 4 and 3 ranks, and the
/// leaders' rank order (nodes 3, 2, 0) is not their node-id order.
Comm sparse_split(const Comm& world) {
  const bool out = world.node() == 1 || world.rank() == 14;
  return world.split(out ? -1 : 0, -world.rank());
}

TEST(Comm, NodeHelpersMatchTopology) {
  struct Case {
    const char* name;
    Topology topology;
    Comm (*derive)(const Comm&);
    int size;
  };
  const Case cases[] = {
      {"world", Topology(3, 4), [](const Comm& world) { return world; }, 12},
      {"interleaved split", Topology(2, 8), interleaved_split, 16},
      {"sparse split", Topology(4, 4), sparse_split, 11},
      {"dup", Topology(3, 4), [](const Comm& world) { return world.dup(); },
       12},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    WorldOf w(c.topology);
    int checked = 0;
    w.world.launch([&](Comm world) {
      const Comm comm = c.derive(world);
      if (!comm.valid()) return;
      expect_table_matches_scan(comm, c.topology.nodes());
      ++checked;
    });
    w.engine.run();
    EXPECT_EQ(checked, c.size);
  }

  // The sparse split's table, spelled out.
  WorldOf w(Topology(4, 4));
  w.world.launch([](Comm world) {
    const Comm comm = sparse_split(world);
    if (!comm.valid()) return;
    EXPECT_EQ(comm.size(), 11);
    EXPECT_EQ(comm.node_ranks(0), (std::vector<int>{7, 8, 9, 10}));
    EXPECT_TRUE(comm.node_ranks(1).empty());
    EXPECT_EQ(comm.node_ranks(3), (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(comm.node_leaders(), (std::vector<int>{0, 3, 7}));
    EXPECT_EQ(comm.leader_index(8), 2u);
    EXPECT_EQ(comm.max_ranks_per_node(), 4u);
  });
  w.engine.run();
}

}  // namespace
}  // namespace e10::mpi

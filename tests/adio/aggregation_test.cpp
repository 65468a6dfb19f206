#include "adio/aggregation.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "mpi/world.h"

namespace e10::adio {
namespace {

using namespace e10::units;

std::vector<int> aggregators_for(std::size_t nodes, std::size_t ppn,
                                 int cb_nodes) {
  sim::Engine engine;
  net::Fabric fabric(nodes, net::FabricParams{});
  mpi::World world(engine, fabric, mpi::Topology(nodes, ppn));
  std::vector<int> result;
  engine.spawn("probe", [&] {
    result = select_aggregators(world.comm(0), cb_nodes);
  });
  engine.run();
  return result;
}

TEST(Aggregation, DefaultOnePerNode) {
  // 4 nodes x 2 ranks: node leaders are ranks 0, 2, 4, 6.
  EXPECT_EQ(aggregators_for(4, 2, 0), (std::vector<int>{0, 2, 4, 6}));
}

TEST(Aggregation, FewerThanNodesSpreadsAcrossFirstNodes) {
  EXPECT_EQ(aggregators_for(4, 2, 2), (std::vector<int>{0, 2}));
}

TEST(Aggregation, MoreThanNodesWrapsToSecondRankPerNode) {
  // First all four node leaders (0,2,4,6), then second ranks of the first
  // two nodes (1,3); returned sorted.
  EXPECT_EQ(aggregators_for(4, 2, 6), (std::vector<int>{0, 1, 2, 3, 4, 6}));
}

TEST(Aggregation, CappedAtCommSize) {
  EXPECT_EQ(aggregators_for(2, 2, 99).size(), 4u);
}

TEST(Aggregation, PaperScaleSelection) {
  // 64 nodes x 8 ranks, 64 aggregators: exactly the node leaders.
  const auto aggs = aggregators_for(64, 8, 64);
  ASSERT_EQ(aggs.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(aggs[static_cast<std::size_t>(i)], i * 8);
  // 8 aggregators: leaders of the first 8 nodes.
  const auto eight = aggregators_for(64, 8, 8);
  ASSERT_EQ(eight.size(), 8u);
  EXPECT_EQ(eight.back(), 56);
}

TEST(Aggregation, SplitAndDupCommunicators) {
  // The node groups of split and dup communicators, walked node-major:
  // interleaved ranks, sparse node ids with leaders out of node order, and
  // a dup that must select exactly as its parent.
  using Derive = mpi::Comm (*)(const mpi::Comm&);
  struct Case {
    const char* name;
    std::size_t nodes;
    std::size_t ppn;
    Derive derive;
    std::vector<std::pair<int, std::vector<int>>> want;  // cb_nodes -> ranks
  };
  const std::vector<Case> cases = {
      {"interleaved split", 2, 8,
       [](const mpi::Comm& world) {
         return world.split(0, (world.rank() % 8) * 2 + world.rank() / 8);
       },
       {{0, {0, 1}}, {3, {0, 1, 2}}, {4, {0, 1, 2, 3}}}},
      {"sparse split", 4, 4,
       [](const mpi::Comm& world) {
         const bool out = world.node() == 1 || world.rank() == 14;
         return world.split(out ? -1 : 0, -world.rank());
       },
       {{0, {0, 3, 7}}, {5, {0, 3, 4, 7, 8}}, {99, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}}},
      {"dup", 3, 4, [](const mpi::Comm& world) { return world.dup(); },
       {{0, {0, 4, 8}}, {5, {0, 1, 4, 5, 8}}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    sim::Engine engine;
    net::Fabric fabric(c.nodes, net::FabricParams{});
    mpi::World world(engine, fabric, mpi::Topology(c.nodes, c.ppn));
    std::vector<std::vector<int>> got;
    world.launch([&](mpi::Comm w) {
      const mpi::Comm comm = c.derive(w);
      if (!comm.valid() || comm.rank() != 0) return;
      for (const auto& [cb_nodes, ranks] : c.want) {
        got.push_back(select_aggregators(comm, cb_nodes));
      }
    });
    engine.run();
    ASSERT_EQ(got.size(), c.want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], c.want[i].second) << "cb_nodes " << c.want[i].first;
    }
  }
}

TEST(FileDomains, EvenSplitCoversRegionExactly) {
  const auto domains =
      partition_file_domains(Extent{100, 1000}, 3, std::nullopt);
  ASSERT_EQ(domains.size(), 3u);
  EXPECT_EQ(domains[0], (Extent{100, 334}));
  EXPECT_EQ(domains[1], (Extent{434, 333}));
  EXPECT_EQ(domains[2], (Extent{767, 333}));
  EXPECT_EQ(domains[2].end(), 1100);
}

TEST(FileDomains, AlignedSplitLandsOnStripeBoundaries) {
  // Region [1 MiB, 17 MiB), 4 aggregators, 4 MiB stripes.
  const auto domains =
      partition_file_domains(Extent{1 * MiB, 16 * MiB}, 4, 4 * MiB);
  ASSERT_EQ(domains.size(), 4u);
  // Interior boundaries are multiples of 4 MiB.
  for (std::size_t i = 0; i + 1 < domains.size(); ++i) {
    EXPECT_EQ(domains[i].end() % (4 * MiB), 0) << i;
    EXPECT_EQ(domains[i].end(), domains[i + 1].offset);
  }
  EXPECT_EQ(domains.front().offset, 1 * MiB);
  EXPECT_EQ(domains.back().end(), 17 * MiB);
}

TEST(FileDomains, AlignedSmallRegionLeavesTrailingDomainsEmpty) {
  // One stripe of work, 4 aggregators: only the first gets anything.
  const auto domains = partition_file_domains(Extent{0, 1 * MiB}, 4, 4 * MiB);
  EXPECT_EQ(domains[0], (Extent{0, 1 * MiB}));
  for (std::size_t i = 1; i < 4; ++i) EXPECT_TRUE(domains[i].empty());
}

TEST(FileDomains, EmptyRegionAllEmpty) {
  const auto domains = partition_file_domains(Extent{50, 0}, 4, std::nullopt);
  for (const auto& d : domains) EXPECT_TRUE(d.empty());
}

TEST(FileDomains, DomainsAreContiguous) {
  for (const std::size_t count : {1u, 2u, 7u, 64u}) {
    const auto domains =
        partition_file_domains(Extent{12345, 999983}, count, std::nullopt);
    Offset cursor = 12345;
    for (const auto& d : domains) {
      EXPECT_EQ(d.offset, cursor);
      cursor = d.end();
    }
    EXPECT_EQ(cursor, 12345 + 999983);
  }
}

TEST(FileDomains, ZeroAggregatorsThrows) {
  EXPECT_THROW(partition_file_domains(Extent{0, 100}, 0, std::nullopt),
               std::logic_error);
}

}  // namespace
}  // namespace e10::adio

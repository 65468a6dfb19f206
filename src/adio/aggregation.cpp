#include "adio/aggregation.h"

#include <algorithm>
#include <stdexcept>

namespace e10::adio {

std::vector<int> select_aggregators(const mpi::Comm& comm, int cb_nodes,
                                    int per_node_cap) {
  const int size = comm.size();
  if (per_node_cap <= 0) {
    throw std::logic_error("select_aggregators: per_node_cap must be > 0");
  }
  const std::vector<mpi::NodeGroup>& by_node = comm.node_groups();
  const int nodes = static_cast<int>(by_node.size());
  // The cap limits both the per-node layers and the total pool.
  std::size_t max_layers = static_cast<std::size_t>(per_node_cap);
  int pool = 0;
  for (const mpi::NodeGroup& group : by_node) {
    pool += static_cast<int>(std::min(group.ranks.size(), max_layers));
  }
  int want = cb_nodes > 0 ? std::min({cb_nodes, size, pool})
                          : std::min(nodes, pool);

  std::vector<int> aggregators;
  aggregators.reserve(static_cast<std::size_t>(want));
  // Node-major round-robin: lowest rank of each node first.
  for (std::size_t layer = 0;
       layer < max_layers && static_cast<int>(aggregators.size()) < want;
       ++layer) {
    for (const mpi::NodeGroup& group : by_node) {
      if (static_cast<int>(aggregators.size()) >= want) break;
      if (layer < group.ranks.size()) aggregators.push_back(group.ranks[layer]);
    }
  }
  std::sort(aggregators.begin(), aggregators.end());
  return aggregators;
}

std::vector<Extent> partition_file_domains(const Extent& region,
                                           std::size_t count,
                                           std::optional<Offset> align_unit) {
  if (count == 0) {
    throw std::logic_error("partition_file_domains: zero aggregators");
  }
  std::vector<Extent> domains(count, Extent{region.offset, 0});
  if (region.empty()) return domains;

  if (!align_unit) {
    // Even split (ADIOI_GEN): remainder spread over the first domains.
    const Offset base = region.length / static_cast<Offset>(count);
    Offset rem = region.length % static_cast<Offset>(count);
    Offset cursor = region.offset;
    for (std::size_t i = 0; i < count; ++i) {
      const Offset len = base + (rem > 0 ? 1 : 0);
      if (rem > 0) --rem;
      domains[i] = Extent{cursor, len};
      cursor += len;
    }
    return domains;
  }

  // Stripe-aligned split: boundaries land on multiples of align_unit, so no
  // two aggregators ever touch the same stripe.
  const Offset unit = *align_unit;
  if (unit <= 0) {
    throw std::logic_error("partition_file_domains: bad align unit");
  }
  const Offset first_boundary = (region.offset / unit) * unit;
  const Offset stripes =
      (region.end() - first_boundary + unit - 1) / unit;  // stripes covered
  const Offset per = stripes / static_cast<Offset>(count);
  Offset extra = stripes % static_cast<Offset>(count);
  Offset cursor = region.offset;
  Offset boundary = first_boundary;
  for (std::size_t i = 0; i < count; ++i) {
    const Offset nstripes = per + (extra > 0 ? 1 : 0);
    if (extra > 0) --extra;
    boundary += nstripes * unit;
    const Offset domain_end = std::clamp(boundary, cursor, region.end());
    domains[i] = Extent{cursor, domain_end - cursor};
    cursor = domain_end;
  }
  return domains;
}

std::vector<Extent> partition_node_aware_domains(
    const Extent& region, const std::vector<std::size_t>& aggregator_nodes,
    Offset cb_buffer_size, std::optional<Offset> align_unit) {
  const std::size_t count = aggregator_nodes.size();
  if (count == 0) {
    throw std::logic_error("partition_node_aware_domains: zero aggregators");
  }
  if (align_unit) {
    // Stripe alignment dominates: false sharing on a stripe lock costs more
    // than an unbalanced intra-node gather saves.
    return partition_file_domains(region, count, align_unit);
  }
  if (cb_buffer_size <= 0) {
    throw std::logic_error("partition_node_aware_domains: bad cb_buffer_size");
  }
  std::vector<Extent> domains(count, Extent{region.offset, 0});
  if (region.empty()) return domains;

  // Group consecutive aggregators that share a node (select_aggregators
  // returns ascending ranks, so one node's aggregators are consecutive).
  struct Group {
    std::size_t first = 0;  // index of first aggregator in the group
    std::size_t size = 0;
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < count; ++i) {
    if (groups.empty() || aggregator_nodes[i] != aggregator_nodes[groups.back().first]) {
      groups.push_back(Group{i, 1});
    } else {
      ++groups.back().size;
    }
  }

  // Deal whole cb-sized blocks: first to groups proportionally to their
  // aggregator count (remainder to the earliest groups), then evenly within
  // each group. Quantizing to cb blocks keeps every round window except the
  // file tail a full collective buffer.
  const Offset blocks =
      (region.length + cb_buffer_size - 1) / cb_buffer_size;
  std::vector<Offset> per_agg_blocks(count, 0);
  Offset spare = blocks;
  for (const Group& group : groups) {
    // Proportional share: floor(blocks * size / count); floors' remainder is
    // dealt to the earliest aggregators below.
    const Offset share = blocks * static_cast<Offset>(group.size) /
                         static_cast<Offset>(count);
    Offset base = share / static_cast<Offset>(group.size);
    Offset rem = share % static_cast<Offset>(group.size);
    for (std::size_t i = 0; i < group.size; ++i) {
      per_agg_blocks[group.first + i] = base + (rem > 0 ? 1 : 0);
      if (rem > 0) --rem;
    }
    spare -= share;
  }
  for (std::size_t i = 0; spare > 0 && i < count; ++i, --spare) {
    ++per_agg_blocks[i];
  }

  // Lay the block counts out contiguously; the final partial block is
  // clipped to the region end, so the cover is exact.
  Offset cursor = region.offset;
  for (std::size_t i = 0; i < count; ++i) {
    const Offset want = per_agg_blocks[i] * cb_buffer_size;
    const Offset len = std::min(want, region.end() - cursor);
    domains[i] = Extent{cursor, len};
    cursor += len;
  }
  return domains;
}

}  // namespace e10::adio

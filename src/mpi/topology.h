// Process placement: which fabric node hosts each MPI rank.
//
// Ranks are placed block-wise (ranks [k*ppn, (k+1)*ppn) on node k), matching
// the paper's "512 MPI processes distributed over 64 nodes (8 procs/node)".
// node_of is the one place the block placement arithmetic lives. Node
// membership (leaders, each node's ranks) belongs to a communicator, whose
// node table holds it for any placement (mpi/comm.h); layers above must not
// hand-roll `rank / ranks_per_node`.
#pragma once

#include <cstddef>
#include <stdexcept>

namespace e10::mpi {

class Topology {
 public:
  Topology(std::size_t nodes, std::size_t ranks_per_node)
      : nodes_(nodes), ranks_per_node_(ranks_per_node) {
    if (nodes == 0 || ranks_per_node == 0) {
      throw std::logic_error("Topology: nodes and ranks_per_node must be > 0");
    }
  }

  [[nodiscard]] std::size_t nodes() const { return nodes_; }
  [[nodiscard]] std::size_t ranks_per_node() const { return ranks_per_node_; }
  [[nodiscard]] std::size_t ranks() const { return nodes_ * ranks_per_node_; }

  [[nodiscard]] std::size_t node_of(int rank) const {
    if (rank < 0 || static_cast<std::size_t>(rank) >= ranks()) {
      throw std::logic_error("Topology::node_of: rank out of range");
    }
    return static_cast<std::size_t>(rank) / ranks_per_node_;
  }

 private:
  std::size_t nodes_;
  std::size_t ranks_per_node_;
};

}  // namespace e10::mpi

// Simulated MPI communicator.
//
// Point-to-point messages travel through the Fabric cost model with MPI
// matching semantics (FIFO per (source, tag), wildcards supported) and an
// eager/rendezvous protocol switch at `eager_threshold`. Collectives are
// modeled as synchronizing rendezvous: all participants leave at
// max(arrival) + an analytic tree cost — precisely the global-
// synchronisation behaviour the paper identifies as collective I/O's
// bottleneck (a slow rank delays everyone).
#pragma once

#include <any>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.h"
#include "mpi/request.h"
#include "mpi/topology.h"
#include "net/fabric.h"
#include "sim/engine.h"
#include "sim/sync.h"

namespace e10::mpi {

inline constexpr int kAnySource = -2;
inline constexpr int kAnyTag = -1;

struct MpiParams {
  /// Per-tree-stage latency of collective algorithms.
  Time coll_alpha = units::microseconds(3);
  /// Serialization bandwidth used by the collective cost model.
  Offset coll_bytes_per_second = Offset{3400} * units::MiB;
  /// Messages larger than this use the rendezvous protocol (sender completes
  /// at delivery), smaller ones are eager (sender completes at tx-done).
  Offset eager_threshold = 256 * units::KiB;
};

class CommState;

/// One node's share of a communicator.
struct NodeGroup {
  std::size_t node = 0;
  /// The communicator's ranks on `node`, ascending; the first is the leader.
  std::vector<int> ranks;
};

/// Lightweight per-rank facade over a shared CommState; cheap to copy.
class Comm {
 public:
  Comm() = default;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;
  [[nodiscard]] std::size_t node() const;
  [[nodiscard]] std::size_t node_of(int rank) const;
  /// Lowest rank of this communicator hosted on the same node as `rank` —
  /// the node's leader in the two-level aggregation protocol. Communicator-
  /// relative: a split communicator elects its own leaders.
  [[nodiscard]] int node_leader(int rank) const;
  /// Every node leader of this communicator, ascending.
  [[nodiscard]] const std::vector<int>& node_leaders() const;
  /// Position of `rank`'s node leader in node_leaders().
  [[nodiscard]] std::size_t leader_index(int rank) const;
  /// Ranks of this communicator hosted on `node`, ascending. Empty when the
  /// communicator has no rank there.
  [[nodiscard]] const std::vector<int>& node_ranks(std::size_t node) const;
  /// The nodes this communicator uses, ascending node id.
  [[nodiscard]] const std::vector<NodeGroup>& node_groups() const;
  /// Largest number of this communicator's ranks sharing one node (1 means
  /// an intra-node gather stage has nothing to gather).
  [[nodiscard]] std::size_t max_ranks_per_node() const;
  sim::Engine& engine() const;
  const std::string& name() const;

  // ---- Point-to-point ----------------------------------------------------

  /// Nonblocking send of a type-erased payload charged as `bytes` on the
  /// wire. The payload is moved, not copied, through to the matching
  /// receive, whose Request::take<T>() moves it out again.
  Request isend(int dst, int tag, std::any payload, Offset bytes) const;

  /// Nonblocking receive from `src` (or kAnySource) with `tag` (or kAnyTag).
  Request irecv(int src, int tag) const;

  void send(int dst, int tag, std::any payload, Offset bytes) const;
  Packet recv(int src, int tag) const;

  // ---- Collectives (all synchronizing; see header comment) ---------------

  void barrier() const;

  /// Reduces every rank's `value` with `op` in rank order. The reduction
  /// runs once per operation, on the first rank to leave the collective;
  /// the others reuse its result.
  template <typename T, typename BinaryOp>
  T allreduce(const T& value, BinaryOp op, Offset bytes = sizeof(T)) const {
    const auto sealed = run_collective(Kind::allreduce, std::any(value), bytes);
    return memo<T>(*sealed, [&op](const std::vector<std::any>& contribs) {
      return reduce_in_rank_order<T>(contribs, op);
    });
  }

  /// Every rank's `value` in rank order; the vector is built once per
  /// operation and copied out to each rank.
  template <typename T>
  std::vector<T> allgather(const T& value, Offset bytes = sizeof(T)) const {
    const auto sealed = run_collective(Kind::allgather, std::any(value), bytes);
    return memo<std::vector<T>>(*sealed, &unbox<T>);
  }

  /// An allgather whose rank-ordered vector is folded by `fold` once per
  /// operation, on the first rank to leave the collective; every rank gets
  /// that same result. Virtual cost and synchronisation are allgather's.
  /// Every rank of one operation must fold to the same result type;
  /// otherwise the later reader throws std::logic_error.
  template <typename T, typename Fold>
  auto allgather_fold(const T& value, Fold fold,
                      Offset bytes = sizeof(T)) const
      -> std::shared_ptr<const std::invoke_result_t<Fold&, std::vector<T>>> {
    using R = std::invoke_result_t<Fold&, std::vector<T>>;
    const auto sealed = run_collective(Kind::allgather, std::any(value), bytes);
    return memo<std::shared_ptr<const R>>(
        *sealed, [&fold](const std::vector<std::any>& contribs) {
          return std::make_shared<const R>(fold(unbox<T>(contribs)));
        });
  }

  /// `send[i]` goes to rank i; returns the vector received from each rank.
  /// `bytes_each` is the wire size of one element.
  template <typename T>
  std::vector<T> alltoall(const std::vector<T>& send,
                          Offset bytes_each = sizeof(T)) const {
    if (static_cast<int>(send.size()) != size()) {
      throw std::logic_error("alltoall: sendbuf size != comm size");
    }
    const auto sealed = run_collective(Kind::alltoall, std::any(send),
                                       bytes_each * size());
    std::vector<T> out;
    out.reserve(sealed->contributions.size());
    for (const std::any& a : sealed->contributions) {
      const auto& row = std::any_cast<const std::vector<T>&>(a);
      out.push_back(row[static_cast<std::size_t>(rank_)]);
    }
    return out;
  }

  /// Typed fast path for the per-round counts dissemination (the hottest
  /// collective in the whole simulator — every exchange round of every
  /// rank runs one). Virtual-time cost and synchronization semantics are
  /// identical to alltoall<Offset>(send, sizeof(Offset)); the host-side
  /// difference is that contributions land in a pooled sparse entry list
  /// instead of per-rank std::any-boxed vector copies, and the result is
  /// written into a caller-reused buffer (resized to size(), absent
  /// entries zero).
  void alltoall_counts(const std::vector<Offset>& send,
                       std::vector<Offset>& recv) const;

  /// Sparse variant: `send` holds this rank's nonzero (destination rank,
  /// byte count) pairs — the caller usually knows them directly from its
  /// round plan; destinations must be unique within one call — and
  /// `recv`, when non-null, receives the dense
  /// per-source counts. Passing nullptr skips result extraction entirely
  /// (a rank that is not an aggregator never reads its counts), which is
  /// a pure host-side shortcut: the rank still participates in, and is
  /// charged for, the collective exactly as in the dense form.
  void alltoall_counts(const std::vector<std::pair<int, Offset>>& send,
                       std::vector<Offset>* recv) const;

  template <typename T>
  T bcast(const T& value, int root, Offset bytes = sizeof(T)) const {
    const auto sealed = run_collective(Kind::bcast, std::any(value), bytes);
    return std::any_cast<const T&>(
        sealed->contributions[static_cast<std::size_t>(root)]);
  }

  /// Root receives everyone's value (rank order); non-roots get empty.
  template <typename T>
  std::vector<T> gather(const T& value, int root,
                        Offset bytes = sizeof(T)) const {
    const auto sealed = run_collective(Kind::gather, std::any(value), bytes);
    if (rank_ != root) return {};
    return unbox<T>(sealed->contributions);
  }

  template <typename T, typename BinaryOp>
  T reduce(const T& value, BinaryOp op, int root,
           Offset bytes = sizeof(T)) const {
    const auto sealed = run_collective(Kind::reduce, std::any(value), bytes);
    if (rank_ != root) return T{};
    return reduce_in_rank_order<T>(sealed->contributions, op);
  }

  /// MPI_Comm_split: ranks with equal color form a new communicator, ordered
  /// by (key, old rank).
  Comm split(int color, int key) const;

  /// MPI_Comm_dup: same group, fresh matching context.
  Comm dup() const;

 private:
  friend class World;
  friend class CommState;
  enum class Kind { barrier, allreduce, allgather, alltoall, bcast, gather, reduce };

  /// A released generic collective: every rank's contribution, indexed by
  /// rank, and one memo slot. The first rank to read the operation derives
  /// its result (a reduction, the gathered vector, a fold) into `memo`, and
  /// the other ranks reuse it, so the host work of reading a collective is
  /// O(p) per operation rather than per rank.
  struct Sealed {
    std::vector<std::any> contributions;
    std::any memo;
  };

  Comm(std::shared_ptr<CommState> state, int rank)
      : state_(std::move(state)), rank_(rank) {}

  /// Deposits this rank's contribution and blocks until all ranks arrive;
  /// returns the operation's sealed contributions.
  std::shared_ptr<Sealed> run_collective(Kind kind, std::any contribution,
                                         Offset bytes) const;

  /// The operation's memoised `R`, derived from the contributions by `make`
  /// on first use. Throws when another rank memoised a different type for
  /// the same operation.
  template <typename R, typename Make>
  static const R& memo(Sealed& sealed, Make make) {
    if (!sealed.memo.has_value()) {
      sealed.memo.emplace<R>(make(std::as_const(sealed.contributions)));
    }
    const R* result = std::any_cast<R>(&sealed.memo);
    if (result == nullptr) {
      throw std::logic_error(
          "collective mismatch: ranks read one operation as different "
          "result types");
    }
    return *result;
  }

  template <typename T>
  static std::vector<T> unbox(const std::vector<std::any>& contribs) {
    std::vector<T> out;
    out.reserve(contribs.size());
    for (const std::any& a : contribs) {
      out.push_back(std::any_cast<const T&>(a));
    }
    return out;
  }

  template <typename T, typename BinaryOp>
  static T reduce_in_rank_order(const std::vector<std::any>& contribs,
                                BinaryOp& op) {
    T acc = std::any_cast<const T&>(contribs[0]);
    for (std::size_t i = 1; i < contribs.size(); ++i) {
      acc = op(acc, std::any_cast<const T&>(contribs[i]));
    }
    return acc;
  }

  std::shared_ptr<CommState> state_;
  int rank_ = -1;
};

/// Shared implementation of one communicator.
class CommState {
 public:
  CommState(sim::Engine& engine, net::Fabric& fabric,
            std::vector<std::size_t> rank_nodes, MpiParams params,
            std::string name);

  int size() const { return static_cast<int>(rank_nodes_.size()); }
  sim::Engine& engine() { return engine_; }
  const std::string& name() const { return name_; }
  std::size_t node_of(int rank) const;
  [[nodiscard]] int node_leader(int rank) const {
    return leaders_[leader_index(rank)];
  }
  [[nodiscard]] const std::vector<int>& node_leaders() const {
    return leaders_;
  }
  [[nodiscard]] std::size_t leader_index(int rank) const {
    return leader_index_[checked(rank, "leader_index")];
  }
  [[nodiscard]] const std::vector<int>& node_ranks(std::size_t node) const;
  [[nodiscard]] const std::vector<NodeGroup>& node_groups() const {
    return node_groups_;
  }
  [[nodiscard]] std::size_t max_ranks_per_node() const {
    return max_ranks_per_node_;
  }

  Request isend(int src, int dst, int tag, std::any payload, Offset bytes);
  Request irecv(int dst, int src, int tag);

  std::shared_ptr<Comm::Sealed> collective(int rank, Comm::Kind kind,
                                           std::any contribution,
                                           Offset bytes);

  void alltoall_counts(int rank, const std::vector<Offset>& send,
                       std::vector<Offset>& recv);
  void alltoall_counts_sparse(int rank,
                              const std::vector<std::pair<int, Offset>>& send,
                              std::vector<Offset>* recv);

  std::shared_ptr<CommState> split_child(int caller_rank, int color, int key,
                                         int* new_rank);

  std::shared_ptr<CommState> dup_child(int caller_rank);

  /// Diagnostics.
  std::uint64_t p2p_messages() const { return p2p_messages_; }
  std::uint64_t collectives() const { return coll_ops_started_; }

 private:
  struct PendingMsg {
    Packet packet;
    Time arrival = 0;
    std::shared_ptr<Request::State> send_state;  // open rendezvous send
    sim::CausalToken cause = 0;  // the send's causal emission
  };
  struct PendingRecv {
    std::shared_ptr<Request::State> state;
    int src = kAnySource;
    int tag = kAnyTag;
  };
  struct RankQueues {
    std::deque<PendingMsg> unexpected;
    std::deque<PendingRecv> posted;
  };
  /// One nonzero cell of a typed alltoall's counts matrix.
  struct CountEntry {
    int src = 0;
    int dst = 0;
    Offset bytes = 0;
  };

  struct CollOp {
    explicit CollOp(sim::Engine& engine) : release(engine) {}
    std::vector<std::any> contributions;
    /// Typed alltoall_counts deposits (sparse, deposit order); empty
    /// unless `typed`. Recycled through counts_pool_ on retirement.
    std::vector<CountEntry> counts;
    std::size_t arrived = 0;
    std::size_t departed = 0;
    Time max_arrival = 0;
    Offset max_bytes = 0;
    Comm::Kind kind = Comm::Kind::barrier;
    bool typed = false;
    sim::SimEvent release;
    std::shared_ptr<Comm::Sealed> result;
    sim::CausalToken cause = 0;  // last arriver's release emission
  };

  /// `rank` as an index; throws when it is outside the communicator.
  std::size_t checked(int rank, const char* what) const;
  static bool matches(const PendingRecv& recv, const Packet& packet);
  Time collective_cost(Comm::Kind kind, Offset max_bytes) const;
  /// Finds or creates the caller's next collective slot (advancing its
  /// sequence number) and checks operation agreement across ranks.
  CollOp& collective_slot(int rank, Comm::Kind kind);
  /// Arrival bookkeeping after the caller deposited its contribution; the
  /// last arriver schedules the release and seals the result.
  void complete_arrival(CollOp& op, Offset bytes);
  /// Blocks until the op releases; records the straggler causal edge.
  void await_release(CollOp& op);
  /// Departure bookkeeping: the last leaver retires the op (ops retire
  /// strictly in sequence order, so only the deque front ever pops).
  void depart(CollOp& op);
  /// Checks out a cleared entry list (pooled capacity) for a typed op.
  std::vector<CountEntry> acquire_counts();
  /// Shared join/extract core of the dense and sparse typed alltoalls.
  CollOp& join_counts(int rank);
  void extract_counts(const CollOp& op, int rank, std::vector<Offset>& recv);

  sim::Engine& engine_;
  net::Fabric& fabric_;
  std::vector<std::size_t> rank_nodes_;
  // Node table, built once by the constructor from rank_nodes_.
  std::vector<NodeGroup> node_groups_;    // ascending node id
  std::vector<int> leaders_;              // ascending rank
  std::vector<std::size_t> leader_index_;  // per rank: index into leaders_
  std::size_t max_ranks_per_node_ = 0;
  MpiParams params_;
  std::string name_;
  std::vector<RankQueues> queues_;
  // Per-rank collective sequence numbers; in-flight ops live in a deque
  // indexed by (sequence - coll_base_). Ranks join ops in sequence order
  // and ops retire in sequence order, so the window is dense: no per-op
  // tree nodes or shared_ptr control blocks, and deque references stay
  // stable while ranks wait inside an op.
  std::vector<std::uint64_t> coll_seq_;
  std::deque<CollOp> coll_ops_;
  std::uint64_t coll_base_ = 0;
  // Retired typed-alltoall entry lists awaiting reuse.
  std::vector<std::vector<CountEntry>> counts_pool_;
  // Children created by split/dup at a given collective sequence.
  std::map<std::uint64_t, std::map<int, std::shared_ptr<CommState>>> children_;
  std::uint64_t p2p_messages_ = 0;
  std::uint64_t coll_ops_started_ = 0;
  int next_child_id_ = 0;
};

}  // namespace e10::mpi

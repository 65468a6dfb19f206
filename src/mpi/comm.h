// Simulated MPI communicator.
//
// Point-to-point messages travel through the Fabric cost model with MPI
// matching semantics (FIFO per (source, tag), wildcards supported) and an
// eager/rendezvous protocol switch at `eager_threshold`. Each rank keeps
// one lane per source it has heard from: a FIFO of that source's unexpected
// messages and a FIFO of the receives posted for that source. kAnySource
// receives wait in one list of their own. A per-rank send sequence and post
// sequence keep MPI's order across lanes: a kAnySource receive takes the
// earliest-sent matching message of any lane, and a message goes to
// whichever of its lane's first matching receive and the first matching
// kAnySource receive was posted first. Matching is thus exactly that of a
// single queue scanned in order, without the scan. Collectives are
// modeled as synchronizing rendezvous: all participants leave at
// max(arrival) + an analytic tree cost — precisely the global-
// synchronisation behaviour the paper identifies as collective I/O's
// bottleneck (a slow rank delays everyone).
#pragma once

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
#include "mpi/payload.h"
#include "mpi/request.h"
#include "mpi/topology.h"
#include "net/fabric.h"
#include "sim/engine.h"
#include "sim/fifo.h"
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
  Request isend(int dst, int tag, Payload payload, Offset bytes) const;

  /// Nonblocking receive from `src` (or kAnySource) with `tag` (or kAnyTag).
  Request irecv(int src, int tag) const;

  void send(int dst, int tag, Payload payload, Offset bytes) const;
  /// Blocking receive; the delivered packet is moved out to the caller.
  Packet recv(int src, int tag) const;

  // ---- Collectives (all synchronizing; see header comment) ---------------

  void barrier() const;

  /// Reduces every rank's `value` with `op` in rank order. The reduction
  /// runs once per operation, on the first rank to leave the collective;
  /// the others reuse its result.
  template <typename T, typename BinaryOp>
  T allreduce(const T& value, BinaryOp op, Offset bytes = sizeof(T)) const {
    const auto sealed = run_collective(Kind::allreduce, Payload(value), bytes);
    return memo<T>(*sealed, [&op](const std::vector<Payload>& contribs) {
      return reduce_in_rank_order<T>(contribs, op);
    });
  }

  /// Every rank's `value` in rank order; the vector is built once per
  /// operation and copied out to each rank.
  template <typename T>
  std::vector<T> allgather(const T& value, Offset bytes = sizeof(T)) const {
    const auto sealed = run_collective(Kind::allgather, Payload(value), bytes);
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
    const auto sealed = run_collective(Kind::allgather, Payload(value), bytes);
    return memo<std::shared_ptr<const R>>(
        *sealed, [&fold](const std::vector<Payload>& contribs) {
          return std::make_shared<const R>(fold(unbox<T>(contribs)));
        });
  }

  /// MPI_Alltoall over the cells a rank actually fills: `send` holds this
  /// rank's (destination rank, value) pairs, destinations unique within one
  /// call; returns the (source rank, value) pairs addressed to this rank, in
  /// ascending source order. The transpose is built once per operation, in
  /// O(pairs + p), on the first rank to leave the collective; the others
  /// copy their row out of it. Virtual cost and synchronisation are a dense
  /// alltoall's: every rank is charged `bytes_each` per rank of the
  /// communicator, whatever it sends. Throws std::logic_error for a
  /// destination outside the communicator, and when ranks send one
  /// operation different value types.
  template <typename T>
  std::vector<std::pair<int, T>> alltoall(std::vector<std::pair<int, T>> send,
                                          Offset bytes_each = sizeof(T)) const {
    for (const auto& cell : send) {
      if (cell.first < 0 || cell.first >= size()) {
        throw std::logic_error("alltoall: destination rank out of range");
      }
    }
    const auto sealed = run_collective(
        Kind::alltoall, Payload(std::move(send)), bytes_each * size());
    return memo<std::vector<std::vector<std::pair<int, T>>>>(
        *sealed, &transpose<T>)[static_cast<std::size_t>(rank_)];
  }

  template <typename T>
  T bcast(const T& value, int root, Offset bytes = sizeof(T)) const {
    const auto sealed = run_collective(Kind::bcast, Payload(value), bytes);
    return contribution<T>(
        sealed->contributions[static_cast<std::size_t>(root)]);
  }

  /// Root receives everyone's value (rank order); non-roots get empty.
  template <typename T>
  std::vector<T> gather(const T& value, int root,
                        Offset bytes = sizeof(T)) const {
    const auto sealed = run_collective(Kind::gather, Payload(value), bytes);
    if (rank_ != root) return {};
    return unbox<T>(sealed->contributions);
  }

  template <typename T, typename BinaryOp>
  T reduce(const T& value, BinaryOp op, int root,
           Offset bytes = sizeof(T)) const {
    const auto sealed = run_collective(Kind::reduce, Payload(value), bytes);
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
  /// its result (a reduction, the gathered vector, a fold, the alltoall
  /// transpose) into `memo`, and the other ranks reuse it, so the host work
  /// of reading a collective is O(p) per operation rather than per rank.
  struct Sealed {
    std::vector<Payload> contributions;
    Payload memo;
  };

  Comm(std::shared_ptr<CommState> state, int rank)
      : state_(std::move(state)), rank_(rank) {}

  /// Deposits this rank's contribution and blocks until all ranks arrive;
  /// returns the operation's sealed contributions.
  std::shared_ptr<Sealed> run_collective(Kind kind, Payload contribution,
                                         Offset bytes) const;

  /// The operation's memoised `R`, derived from the contributions by `make`
  /// on first use. Throws when another rank memoised a different type for
  /// the same operation.
  template <typename R, typename Make>
  static const R& memo(Sealed& sealed, Make make) {
    if (!sealed.memo.has_value()) {
      sealed.memo.emplace<R>(make(std::as_const(sealed.contributions)));
    }
    const R* result = sealed.memo.get_if<R>();
    if (result == nullptr) {
      throw std::logic_error(
          "collective mismatch: ranks read one operation as different "
          "result types");
    }
    return *result;
  }

  /// One rank's contribution as a `T`; throws when it holds another type.
  template <typename T>
  static const T& contribution(const Payload& contrib) {
    const T* value = contrib.get_if<T>();
    if (value == nullptr) {
      throw std::logic_error(
          "collective mismatch: ranks contributed one operation different "
          "value types");
    }
    return *value;
  }

  template <typename T>
  static std::vector<T> unbox(const std::vector<Payload>& contribs) {
    std::vector<T> out;
    out.reserve(contribs.size());
    for (const Payload& contrib : contribs) {
      out.push_back(contribution<T>(contrib));
    }
    return out;
  }

  /// Row d holds the (source, value) pairs sent to rank d, sources
  /// ascending: one pass over the contributions in rank order.
  template <typename T>
  static std::vector<std::vector<std::pair<int, T>>> transpose(
      const std::vector<Payload>& contribs) {
    using Cells = std::vector<std::pair<int, T>>;
    std::vector<Cells> rows(contribs.size());
    for (std::size_t src = 0; src < contribs.size(); ++src) {
      const Cells* cells = contribs[src].get_if<Cells>();
      if (cells == nullptr) {
        throw std::logic_error(
            "collective mismatch: ranks sent one alltoall different value "
            "types");
      }
      for (const auto& [dst, value] : *cells) {
        rows[static_cast<std::size_t>(dst)].emplace_back(static_cast<int>(src),
                                                         value);
      }
    }
    return rows;
  }

  template <typename T, typename BinaryOp>
  static T reduce_in_rank_order(const std::vector<Payload>& contribs,
                                BinaryOp& op) {
    T acc = contribution<T>(contribs[0]);
    for (std::size_t i = 1; i < contribs.size(); ++i) {
      acc = op(acc, contribution<T>(contribs[i]));
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

  Request isend(int src, int dst, int tag, Payload payload, Offset bytes);
  Request irecv(int dst, int src, int tag);

  std::shared_ptr<Comm::Sealed> collective(int rank, Comm::Kind kind,
                                           Payload contribution,
                                           Offset bytes);

  std::shared_ptr<CommState> split_child(int caller_rank, int color, int key,
                                         int* new_rank);

  std::shared_ptr<CommState> dup_child(int caller_rank);

 private:
  struct PendingMsg {
    Packet packet;
    Time arrival = 0;
    std::shared_ptr<Request::State> send_state;  // open rendezvous send
    sim::CausalToken cause = 0;  // the send's causal emission
    std::uint64_t seq = 0;       // the receiver's send sequence
  };
  struct PendingRecv {
    std::shared_ptr<Request::State> state;
    int tag = kAnyTag;
    std::uint64_t seq = 0;  // the receiver's post sequence
  };
  /// One source's traffic to one rank. No unexpected message ever matches
  /// a posted receive: each arrival first looks for a receive, each post
  /// first looks for a message.
  struct Lane {
    std::uint64_t key = 0;             // lane_key(dst, src)
    sim::Fifo<PendingMsg> unexpected;  // send order
    sim::Fifo<PendingRecv> posted;     // post order, this source only
  };
  struct RankQueues {
    /// This rank's lanes in first-contact order, for kAnySource receives.
    std::vector<Lane*> lanes;
    sim::Fifo<PendingRecv> any_source;  // post order
    std::uint64_t sends = 0;  // messages queued unexpected so far
    std::uint64_t posts = 0;  // receives posted so far
  };
  struct CollOp {
    explicit CollOp(sim::Engine& engine) : release(engine) {}
    std::vector<Payload> contributions;
    std::size_t arrived = 0;
    std::size_t departed = 0;
    Time max_arrival = 0;
    Offset max_bytes = 0;
    Comm::Kind kind = Comm::Kind::barrier;
    sim::SimEvent release;
    std::shared_ptr<Comm::Sealed> result;
    sim::CausalToken cause = 0;  // last arriver's release emission
  };

  /// `rank` as an index; throws when it is outside the communicator.
  std::size_t checked(int rank, const char* what) const;
  /// The lane from `src` to `dst`, created on first contact.
  Lane& lane_of(int dst, int src);
  /// The slot of lane_slots_ holding the lane keyed `key`, or the empty
  /// slot where it belongs.
  std::size_t lane_slot(std::uint64_t key) const;
  /// Completes a receive with an unexpected message it matched.
  void deliver(PendingMsg& msg, Request::State& recv);
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
  // Every lane, kept once created; a deque keeps their addresses, which
  // RankQueues::lanes and lane_slots_ hold. lane_slots_ finds a lane by
  // key with open addressing: a power-of-two table, at most half full,
  // probed linearly from a multiplicative hash, so a lookup takes no
  // division and nearly always one probe however many lanes there are.
  std::deque<Lane> lanes_;
  std::vector<Lane*> lane_slots_;
  // Per-rank collective sequence numbers; in-flight ops live in a deque
  // indexed by (sequence - coll_base_). Ranks join ops in sequence order
  // and ops retire in sequence order, so the window is dense: no per-op
  // tree nodes or shared_ptr control blocks, and deque references stay
  // stable while ranks wait inside an op.
  std::vector<std::uint64_t> coll_seq_;
  std::deque<CollOp> coll_ops_;
  std::uint64_t coll_base_ = 0;
  // Children created by split/dup at a given collective sequence.
  std::map<std::uint64_t, std::map<int, std::shared_ptr<CommState>>> children_;
  int next_child_id_ = 0;
};

}  // namespace e10::mpi

#include "mpi/comm.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <tuple>

namespace e10::mpi {

namespace {
/// Wire size of the message envelope (header) charged on top of payload.
constexpr Offset kEnvelopeBytes = 64;

int log2_stages(int p) {
  if (p <= 1) return 0;
  return static_cast<int>(
      std::bit_width(static_cast<unsigned>(p - 1)));  // ceil(log2 p)
}
}  // namespace

// ---------------------------------------------------------------------------
// Comm facade
// ---------------------------------------------------------------------------

int Comm::size() const { return state_->size(); }

std::size_t Comm::node() const { return state_->node_of(rank_); }

std::size_t Comm::node_of(int rank) const { return state_->node_of(rank); }

int Comm::node_leader(int rank) const { return state_->node_leader(rank); }

const std::vector<int>& Comm::node_leaders() const {
  return state_->node_leaders();
}

std::size_t Comm::leader_index(int rank) const {
  return state_->leader_index(rank);
}

const std::vector<int>& Comm::node_ranks(std::size_t node) const {
  return state_->node_ranks(node);
}

const std::vector<NodeGroup>& Comm::node_groups() const {
  return state_->node_groups();
}

std::size_t Comm::max_ranks_per_node() const {
  return state_->max_ranks_per_node();
}

sim::Engine& Comm::engine() const { return state_->engine(); }

const std::string& Comm::name() const { return state_->name(); }

Request Comm::isend(int dst, int tag, std::any payload, Offset bytes) const {
  return state_->isend(rank_, dst, tag, std::move(payload), bytes);
}

Request Comm::irecv(int src, int tag) const {
  return state_->irecv(rank_, src, tag);
}

void Comm::send(int dst, int tag, std::any payload, Offset bytes) const {
  Request r = isend(dst, tag, std::move(payload), bytes);
  r.wait();
}

Packet Comm::recv(int src, int tag) const {
  Request r = irecv(src, tag);
  r.wait();
  return r.packet();
}

void Comm::barrier() const {
  (void)run_collective(Kind::barrier, std::any(), 0);
}

std::shared_ptr<Comm::Sealed> Comm::run_collective(Kind kind,
                                                   std::any contribution,
                                                   Offset bytes) const {
  return state_->collective(rank_, kind, std::move(contribution), bytes);
}

void Comm::alltoall_counts(const std::vector<Offset>& send,
                           std::vector<Offset>& recv) const {
  state_->alltoall_counts(rank_, send, recv);
}

void Comm::alltoall_counts(const std::vector<std::pair<int, Offset>>& send,
                           std::vector<Offset>* recv) const {
  state_->alltoall_counts_sparse(rank_, send, recv);
}

Comm Comm::split(int color, int key) const {
  int new_rank = -1;
  auto child = state_->split_child(rank_, color, key, &new_rank);
  if (child == nullptr) return Comm();  // undefined color (MPI_UNDEFINED)
  return Comm(std::move(child), new_rank);
}

Comm Comm::dup() const {
  auto child = state_->dup_child(rank_);
  return Comm(std::move(child), rank_);
}

// ---------------------------------------------------------------------------
// CommState
// ---------------------------------------------------------------------------

CommState::CommState(sim::Engine& engine, net::Fabric& fabric,
                     std::vector<std::size_t> rank_nodes, MpiParams params,
                     std::string name)
    : engine_(engine),
      fabric_(fabric),
      rank_nodes_(std::move(rank_nodes)),
      params_(params),
      name_(std::move(name)),
      queues_(rank_nodes_.size()),
      coll_seq_(rank_nodes_.size(), 0) {
  if (rank_nodes_.empty()) {
    throw std::logic_error("CommState with zero ranks");
  }
  // Node table. Scanning in rank order meets each node's leader first, so
  // leaders_ comes out ascending; the map orders the groups by node id.
  std::map<std::size_t, std::size_t> slot_of_node;  // node -> leaders_ index
  std::vector<std::vector<int>> members;             // per leaders_ index
  leader_index_.reserve(rank_nodes_.size());
  for (int r = 0; r < size(); ++r) {
    const auto [it, first] = slot_of_node.try_emplace(
        rank_nodes_[static_cast<std::size_t>(r)], leaders_.size());
    if (first) {
      leaders_.push_back(r);
      members.emplace_back();
    }
    leader_index_.push_back(it->second);
    members[it->second].push_back(r);
  }
  node_groups_.reserve(slot_of_node.size());
  for (const auto& [node, slot] : slot_of_node) {
    max_ranks_per_node_ = std::max(max_ranks_per_node_, members[slot].size());
    node_groups_.push_back(NodeGroup{node, std::move(members[slot])});
  }
}

std::size_t CommState::checked(int rank, const char* what) const {
  if (rank < 0 || rank >= size()) {
    throw std::logic_error(std::string("CommState::") + what +
                           ": rank out of range");
  }
  return static_cast<std::size_t>(rank);
}

std::size_t CommState::node_of(int rank) const {
  return rank_nodes_[checked(rank, "node_of")];
}

const std::vector<int>& CommState::node_ranks(std::size_t node) const {
  static const std::vector<int> kNone;
  const auto it = std::lower_bound(
      node_groups_.begin(), node_groups_.end(), node,
      [](const NodeGroup& group, std::size_t n) { return group.node < n; });
  return it != node_groups_.end() && it->node == node ? it->ranks : kNone;
}

bool CommState::matches(const PendingRecv& recv, const Packet& packet) {
  return (recv.src == kAnySource || recv.src == packet.src) &&
         (recv.tag == kAnyTag || recv.tag == packet.tag);
}

Request CommState::isend(int src, int dst, int tag, std::any payload,
                         Offset bytes) {
  if (dst < 0 || dst >= size()) {
    throw std::logic_error("isend: destination rank out of range");
  }
  if (bytes < 0) throw std::logic_error("isend: negative byte count");
  ++p2p_messages_;

  const Time now = engine_.now();
  const net::Fabric::TransferTimes times = fabric_.transfer_times(
      node_of(src), node_of(dst), kEnvelopeBytes + bytes, now);

  Packet packet;
  packet.src = src;
  packet.tag = tag;
  packet.bytes = bytes;
  packet.payload = std::move(payload);

  auto send_state = std::make_shared<Request::State>(engine_);
  const bool eager = bytes <= params_.eager_threshold;

  // The send call is the causal source of the matched receive's completion
  // (and of the sender's own tx-done wait); the in-flight latency carries
  // the NIC queueing the cost model charged.
  sim::CausalToken cause = 0;
  if (sim::CausalObserver* causal = engine_.causal_observer();
      causal != nullptr && engine_.in_process()) {
    cause = causal->emit(sim::EdgeKind::message, engine_.current(), now,
                         times.queued);
  }
  send_state->cause = cause;

  RankQueues& dst_queues = queues_[static_cast<std::size_t>(dst)];
  // Look for an already-posted matching receive (FIFO post order).
  for (auto it = dst_queues.posted.begin(); it != dst_queues.posted.end();
       ++it) {
    if (matches(*it, packet)) {
      const Time completion = times.arrival;
      it->state->packet = std::move(packet);
      it->state->has_packet = true;
      it->state->cause = cause;
      it->state->done.set_at(completion);
      send_state->done.set_at(eager ? times.tx_done : completion);
      dst_queues.posted.erase(it);
      return Request(std::move(send_state));
    }
  }

  // No receive posted yet: queue as unexpected. Eager sends complete at
  // tx-done (buffered); rendezvous sends stay open until matched.
  PendingMsg msg;
  msg.packet = std::move(packet);
  msg.arrival = times.arrival;
  msg.cause = cause;
  if (eager) {
    send_state->done.set_at(times.tx_done);
  } else {
    msg.send_state = send_state;
  }
  dst_queues.unexpected.push_back(std::move(msg));
  return Request(std::move(send_state));
}

Request CommState::irecv(int dst, int src, int tag) {
  if (src != kAnySource && (src < 0 || src >= size())) {
    throw std::logic_error("irecv: source rank out of range");
  }
  auto recv_state = std::make_shared<Request::State>(engine_);
  PendingRecv pending{recv_state, src, tag};

  RankQueues& my_queues = queues_[static_cast<std::size_t>(dst)];
  for (auto it = my_queues.unexpected.begin();
       it != my_queues.unexpected.end(); ++it) {
    if (matches(pending, it->packet)) {
      const Time completion = std::max(engine_.now(), it->arrival);
      recv_state->packet = std::move(it->packet);
      recv_state->has_packet = true;
      recv_state->cause = it->cause;
      recv_state->done.set_at(completion);
      if (it->send_state != nullptr) {
        // Rendezvous sender completes when the receiver drains the message;
        // the receiver posting this irecv is what released it.
        if (sim::CausalObserver* causal = engine_.causal_observer();
            causal != nullptr && engine_.in_process()) {
          it->send_state->cause = causal->emit(
              sim::EdgeKind::message, engine_.current(), engine_.now());
        }
        it->send_state->done.set_at(completion);
      }
      my_queues.unexpected.erase(it);
      return Request(std::move(recv_state));
    }
  }
  my_queues.posted.push_back(std::move(pending));
  return Request(std::move(recv_state));
}

Time CommState::collective_cost(Comm::Kind kind, Offset max_bytes) const {
  const int stages = log2_stages(size());
  const auto ser = [&](Offset bytes) -> Time {
    return static_cast<Time>(
        static_cast<double>(bytes) * 1e9 /
        static_cast<double>(params_.coll_bytes_per_second));
  };
  switch (kind) {
    case Comm::Kind::barrier:
      return stages * params_.coll_alpha;
    case Comm::Kind::allreduce:
    case Comm::Kind::reduce:
      return stages * (params_.coll_alpha + ser(max_bytes));
    case Comm::Kind::bcast:
      return stages * params_.coll_alpha + ser(max_bytes);
    case Comm::Kind::allgather:
    case Comm::Kind::gather:
      return stages * params_.coll_alpha + ser(max_bytes * size());
    case Comm::Kind::alltoall:
      // max_bytes is already the per-rank total (bytes_each * p).
      return stages * params_.coll_alpha + ser(max_bytes);
  }
  return 0;
}

CommState::CollOp& CommState::collective_slot(int rank, Comm::Kind kind) {
  const std::uint64_t gen = coll_seq_[static_cast<std::size_t>(rank)]++;
  if (gen < coll_base_) {
    throw std::logic_error("collective slot retired before all ranks joined");
  }
  const std::size_t idx = static_cast<std::size_t>(gen - coll_base_);
  if (idx > coll_ops_.size()) {
    // A rank can only reach sequence g after joining g-1 itself, so slots
    // are created densely in order; a gap means sequence corruption.
    throw std::logic_error("collective sequence gap on comm '" + name_ + "'");
  }
  if (idx == coll_ops_.size()) {
    coll_ops_.emplace_back(engine_);
    coll_ops_.back().kind = kind;
    ++coll_ops_started_;
  }
  CollOp& op = coll_ops_[idx];
  if (op.kind != kind) {
    throw std::logic_error(
        "collective mismatch on comm '" + name_ +
        "': ranks issued different collective operations at the same step");
  }
  return op;
}

void CommState::complete_arrival(CollOp& op, Offset bytes) {
  op.max_arrival = std::max(op.max_arrival, engine_.now());
  op.max_bytes = std::max(op.max_bytes, bytes);
  ++op.arrived;
  if (op.arrived == static_cast<std::size_t>(size())) {
    // Last arriver: everyone leaves at max arrival + modeled tree cost.
    const Time release =
        op.max_arrival + collective_cost(op.kind, op.max_bytes);
    if (!op.typed) {
      op.result = std::make_shared<Comm::Sealed>(
          Comm::Sealed{std::move(op.contributions), {}});
    }
    // Every released participant was gated on the last arriver — the
    // collective straggler edge the critical-path walk follows.
    if (sim::CausalObserver* causal = engine_.causal_observer();
        causal != nullptr && engine_.in_process()) {
      op.cause = causal->emit(sim::EdgeKind::collective, engine_.current(),
                              release);
    }
    op.release.set_at(release);
  }
}

void CommState::await_release(CollOp& op) {
  const Time before = engine_.now();
  op.release.wait();
  if (sim::CausalObserver* causal = engine_.causal_observer();
      causal != nullptr && op.cause != 0 && engine_.now() > before) {
    causal->ack(op.cause, engine_.current(), engine_.now());
  }
}

void CommState::depart(CollOp& op) {
  ++op.departed;
  const auto p = static_cast<std::size_t>(size());
  // Ranks depart op g before joining g+1, so full departure happens in
  // sequence order and only the front ever retires.
  while (!coll_ops_.empty() && coll_ops_.front().departed == p) {
    if (coll_ops_.front().typed) {
      counts_pool_.push_back(std::move(coll_ops_.front().counts));
    }
    coll_ops_.pop_front();
    ++coll_base_;
  }
}

std::vector<CommState::CountEntry> CommState::acquire_counts() {
  if (!counts_pool_.empty()) {
    std::vector<CountEntry> counts = std::move(counts_pool_.back());
    counts_pool_.pop_back();
    counts.clear();
    return counts;
  }
  return {};
}

CommState::CollOp& CommState::join_counts(int rank) {
  CollOp& op = collective_slot(rank, Comm::Kind::alltoall);
  if (op.arrived == 0) {
    op.typed = true;
    op.counts = acquire_counts();
  } else if (!op.typed) {
    throw std::logic_error("collective mismatch on comm '" + name_ +
                           "': typed and generic alltoall at the same step");
  }
  return op;
}

void CommState::extract_counts(const CollOp& op, int rank,
                               std::vector<Offset>& recv) {
  recv.assign(static_cast<std::size_t>(size()), 0);
  for (const CountEntry& entry : op.counts) {
    if (entry.dst == rank) {
      recv[static_cast<std::size_t>(entry.src)] = entry.bytes;
    }
  }
}

std::shared_ptr<Comm::Sealed> CommState::collective(int rank, Comm::Kind kind,
                                                    std::any contribution,
                                                    Offset bytes) {
  CollOp& op = collective_slot(rank, kind);
  if (op.typed) {
    throw std::logic_error("collective mismatch on comm '" + name_ +
                           "': typed and generic alltoall at the same step");
  }
  if (op.arrived == 0) {
    op.contributions.resize(static_cast<std::size_t>(size()));
  }
  op.contributions[static_cast<std::size_t>(rank)] = std::move(contribution);
  complete_arrival(op, bytes);
  await_release(op);
  std::shared_ptr<Comm::Sealed> result = op.result;
  depart(op);
  return result;
}

void CommState::alltoall_counts(int rank, const std::vector<Offset>& send,
                                std::vector<Offset>& recv) {
  const auto p = static_cast<std::size_t>(size());
  if (send.size() != p) {
    throw std::logic_error("alltoall: sendbuf size != comm size");
  }
  CollOp& op = join_counts(rank);
  for (std::size_t i = 0; i < p; ++i) {
    if (send[i] != 0) {
      op.counts.push_back(CountEntry{rank, static_cast<int>(i), send[i]});
    }
  }
  complete_arrival(op, static_cast<Offset>(sizeof(Offset)) * size());
  await_release(op);
  extract_counts(op, rank, recv);
  depart(op);
}

void CommState::alltoall_counts_sparse(
    int rank, const std::vector<std::pair<int, Offset>>& send,
    std::vector<Offset>* recv) {
  CollOp& op = join_counts(rank);
  for (const auto& [dst, bytes] : send) {
    if (dst < 0 || dst >= size()) {
      throw std::logic_error("alltoall: destination rank out of range");
    }
    op.counts.push_back(CountEntry{rank, dst, bytes});
  }
  complete_arrival(op, static_cast<Offset>(sizeof(Offset)) * size());
  await_release(op);
  if (recv != nullptr) {
    extract_counts(op, rank, *recv);
  }
  depart(op);
}

std::shared_ptr<CommState> CommState::split_child(int caller_rank, int color,
                                                  int key, int* new_rank) {
  // The collective sequence number identifies this split so that all ranks
  // agree on which child registry entry to use.
  const std::uint64_t gen = coll_seq_[static_cast<std::size_t>(caller_rank)];
  const auto sealed = collective(
      caller_rank, Comm::Kind::allgather,
      std::any(std::tuple<int, int>(color, key)), sizeof(int) * 2);

  if (color < 0) {  // MPI_UNDEFINED-style: caller not in any child
    *new_rank = -1;
    return nullptr;
  }

  // Deterministic membership: ranks with my color, ordered by (key, rank).
  std::vector<std::pair<int, int>> members;  // (key, old rank)
  for (int r = 0; r < size(); ++r) {
    const auto [c, k] = std::any_cast<const std::tuple<int, int>&>(
        sealed->contributions[static_cast<std::size_t>(r)]);
    if (c == color) members.emplace_back(k, r);
  }
  std::sort(members.begin(), members.end());

  auto& registry = children_[gen];
  auto it = registry.find(color);
  if (it == registry.end()) {
    std::vector<std::size_t> nodes;
    nodes.reserve(members.size());
    for (const auto& [k, r] : members) nodes.push_back(node_of(r));
    auto child = std::make_shared<CommState>(
        engine_, fabric_, std::move(nodes), params_,
        name_ + ".split" + std::to_string(next_child_id_++) + ".c" +
            std::to_string(color));
    it = registry.emplace(color, std::move(child)).first;
  }
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i].second == caller_rank) {
      *new_rank = static_cast<int>(i);
      break;
    }
  }
  return it->second;
}

std::shared_ptr<CommState> CommState::dup_child(int caller_rank) {
  const std::uint64_t gen = coll_seq_[static_cast<std::size_t>(caller_rank)];
  (void)collective(caller_rank, Comm::Kind::barrier, std::any(), 0);
  auto& registry = children_[gen];
  auto it = registry.find(0);
  if (it == registry.end()) {
    auto child = std::make_shared<CommState>(
        engine_, fabric_, rank_nodes_, params_,
        name_ + ".dup" + std::to_string(next_child_id_++));
    it = registry.emplace(0, std::move(child)).first;
  }
  return it->second;
}

}  // namespace e10::mpi

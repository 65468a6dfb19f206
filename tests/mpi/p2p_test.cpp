#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <string>
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

TEST(P2P, SendRecvDeliversPayload) {
  Fixture f(2, 1);
  std::string got;
  f.world.launch([&](Comm comm) {
    if (comm.rank() == 0) {
      comm.send(1, /*tag=*/7, std::string("hello"), 5);
    } else {
      Packet p = comm.recv(0, 7);
      got = p.payload.take<std::string>();
      EXPECT_EQ(p.src, 0);
      EXPECT_EQ(p.tag, 7);
      EXPECT_EQ(p.bytes, 5);
    }
  });
  f.engine.run();
  EXPECT_EQ(got, "hello");
}

TEST(P2P, RecvBlocksUntilMessageArrives) {
  Fixture f(2, 1);
  Time recv_done = -1;
  f.world.launch([&](Comm comm) {
    if (comm.rank() == 0) {
      comm.engine().delay(seconds(1));
      comm.send(1, 0, 42, 4);
    } else {
      (void)comm.recv(0, 0);
      recv_done = comm.engine().now();
    }
  });
  f.engine.run();
  EXPECT_GT(recv_done, seconds(1));  // waited for the sender + transfer time
  EXPECT_LT(recv_done, seconds(1) + milliseconds(1));
}

TEST(P2P, TagMatchingIsSelective) {
  Fixture f(2, 1);
  std::vector<int> got;
  f.world.launch([&](Comm comm) {
    if (comm.rank() == 0) {
      comm.send(1, /*tag=*/1, 100, 4);
      comm.send(1, /*tag=*/2, 200, 4);
    } else {
      // Receive tag 2 first even though tag 1 arrived first.
      got.push_back(comm.recv(0, 2).payload.take<int>());
      got.push_back(comm.recv(0, 1).payload.take<int>());
    }
  });
  f.engine.run();
  EXPECT_EQ(got, (std::vector<int>{200, 100}));
}

TEST(P2P, FifoOrderPerSourceAndTag) {
  Fixture f(2, 1);
  std::vector<int> got;
  f.world.launch([&](Comm comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 4; ++i) comm.send(1, 5, i, 4);
    } else {
      for (int i = 0; i < 4; ++i) {
        got.push_back(comm.recv(0, 5).payload.take<int>());
      }
    }
  });
  f.engine.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
}

TEST(P2P, AnySourceAndAnyTag) {
  Fixture f(3, 1);
  int sum = 0;
  f.world.launch([&](Comm comm) {
    if (comm.rank() == 2) {
      sum += comm.recv(kAnySource, kAnyTag).payload.take<int>();
      sum += comm.recv(kAnySource, kAnyTag).payload.take<int>();
    } else {
      comm.engine().delay(microseconds(comm.rank() + 1));
      comm.send(2, comm.rank(), comm.rank() + 1, 4);
    }
  });
  f.engine.run();
  EXPECT_EQ(sum, 3);
}

TEST(P2P, IsendIrecvWaitall) {
  Fixture f(4, 1);
  std::vector<int> received(4, -1);
  f.world.launch([&](Comm comm) {
    if (comm.rank() == 0) {
      std::vector<Request> reqs;
      for (int src = 1; src < 4; ++src) reqs.push_back(comm.irecv(src, 0));
      Request::wait_all(reqs);
      for (Request& r : reqs) {
        const auto src = static_cast<std::size_t>(r.packet().src);
        received[src] = r.take<int>();
      }
    } else {
      Request r = comm.isend(0, 0, comm.rank() * 10, 4);
      r.wait();
    }
  });
  f.engine.run();
  EXPECT_EQ(received[1], 10);
  EXPECT_EQ(received[2], 20);
  EXPECT_EQ(received[3], 30);
}

TEST(P2P, LargeMessageTakesLongerThanSmall) {
  auto elapsed_for = [](Offset bytes) {
    Fixture f(2, 1);
    Time done = 0;
    f.world.launch([&, bytes](Comm comm) {
      if (comm.rank() == 0) {
        comm.send(1, 0, 0, bytes);
      } else {
        (void)comm.recv(0, 0);
        done = comm.engine().now();
      }
    });
    f.engine.run();
    return done;
  };
  const Time small = elapsed_for(1 * units::KiB);
  const Time large = elapsed_for(64 * units::MiB);
  EXPECT_GT(large, small * 100);
}

TEST(P2P, IntraNodeFasterThanInterNode) {
  auto elapsed = [](std::size_t nodes, std::size_t ppn) {
    Fixture f(nodes, ppn);
    Time done = 0;
    f.world.launch([&](Comm comm) {
      if (comm.rank() == 0) {
        comm.send(1, 0, 0, 4 * units::MiB);
      } else {
        (void)comm.recv(0, 0);
        done = comm.engine().now();
      }
    });
    f.engine.run();
    return done;
  };
  // Same two ranks; co-located vs on different nodes.
  EXPECT_LT(elapsed(1, 2), elapsed(2, 1));
}

TEST(P2P, EagerSendCompletesBeforeDelivery) {
  Fixture f(2, 1);
  Time send_done = -1;
  Time recv_done = -1;
  f.world.launch([&](Comm comm) {
    if (comm.rank() == 0) {
      Request r = comm.isend(1, 0, 1, 1 * units::KiB);  // below threshold
      r.wait();
      send_done = comm.engine().now();
    } else {
      comm.engine().delay(seconds(1));  // receiver is late
      (void)comm.recv(0, 0);
      recv_done = comm.engine().now();
    }
  });
  f.engine.run();
  EXPECT_LT(send_done, milliseconds(1));  // sender did not wait for receiver
  EXPECT_GE(recv_done, seconds(1));
}

TEST(P2P, RendezvousSendWaitsForReceiver) {
  Fixture f(2, 1);
  Time send_done = -1;
  f.world.launch([&](Comm comm) {
    if (comm.rank() == 0) {
      Request r = comm.isend(1, 0, 1, 4 * units::MiB);  // above threshold
      r.wait();
      send_done = comm.engine().now();
    } else {
      comm.engine().delay(seconds(1));  // receiver is late
      (void)comm.recv(0, 0);
    }
  });
  f.engine.run();
  EXPECT_GE(send_done, seconds(1));  // sender blocked until match
}

TEST(P2P, IncastContentionSerializesAtReceiverNic) {
  // 8 senders on 8 distinct nodes each push 8 MiB to rank 0: total delivery
  // time must be at least 8x a single transfer (receive NIC serializes).
  auto run = [](int senders) {
    sim::Engine engine;
    net::Fabric fabric(static_cast<std::size_t>(senders) + 1,
                       net::FabricParams{});
    World world(engine, fabric,
                Topology(static_cast<std::size_t>(senders) + 1, 1));
    Time done = 0;
    world.launch([&, senders](Comm comm) {
      if (comm.rank() == 0) {
        std::vector<Request> reqs;
        for (int s = 1; s <= senders; ++s) reqs.push_back(comm.irecv(s, 0));
        Request::wait_all(reqs);
        done = comm.engine().now();
      } else {
        comm.send(0, 0, 0, 8 * units::MiB);
      }
    });
    engine.run();
    return done;
  };
  // One transfer costs ~2x wire time (tx + rx serialization); with 8
  // concurrent senders the tx sides overlap but the single rx NIC drains
  // them serially: total ~ (8+1) x wire = 4.5x a single transfer.
  const Time one = run(1);
  const Time eight = run(8);
  EXPECT_GT(eight, 4 * one);
  EXPECT_LT(eight, 6 * one);
}

TEST(P2P, SendToOutOfRangeRankThrows) {
  Fixture f(2, 1);
  f.world.launch([&](Comm comm) {
    if (comm.rank() == 0) comm.send(5, 0, 0, 1);
  });
  EXPECT_THROW(f.engine.run(), std::logic_error);
}

// ---- Matching order ---------------------------------------------------------

TEST(P2P, AnySourceTakesEarliestSentMessage) {
  // Rank 2 hears from rank 0 first. Then rank 1 sends a rendezvous-sized
  // message, which arrives last, and rank 0 sends two small ones later.
  // Wildcard receives take them in send order across sources, whatever
  // their arrival or which source was heard from first.
  Fixture f(3, 1);
  std::vector<int> got;
  f.world.launch([&](Comm comm) {
    if (comm.rank() == 0) {
      comm.engine().delay(microseconds(1));
      comm.send(2, 9, 1, 8);
      comm.engine().delay(microseconds(5));
      comm.send(2, 5, 20, 8);
      comm.send(2, 4, 21, 8);
    } else if (comm.rank() == 1) {
      comm.engine().delay(microseconds(5));
      Request r = comm.isend(2, 4, 10, 1 * units::MiB);
      r.wait();
    } else {
      for (int i = 0; i < 4; ++i) {
        if (i == 1) comm.engine().delay(milliseconds(10));  // all arrived
        Request r = i == 0 ? comm.irecv(0, 9) : comm.irecv(kAnySource, kAnyTag);
        r.wait();
        got.push_back(r.take<int>());
      }
    }
  });
  f.engine.run();
  EXPECT_EQ(got, (std::vector<int>{1, 10, 20, 21}));
}

TEST(P2P, MessageGoesToTheEarlierPostedOfSpecificAndWildcard) {
  for (const bool wildcard_first : {true, false}) {
    Fixture f(2, 1);
    int specific = -1;
    int wildcard = -1;
    f.world.launch([&](Comm comm) {
      if (comm.rank() == 0) {
        comm.engine().delay(milliseconds(1));  // both receives are posted
        comm.send(1, 7, 100, 8);
        comm.send(1, 7, 200, 8);
      } else {
        Request first = wildcard_first ? comm.irecv(kAnySource, 7)
                                       : comm.irecv(0, 7);
        Request second = wildcard_first ? comm.irecv(0, 7)
                                        : comm.irecv(kAnySource, kAnyTag);
        first.wait();
        second.wait();
        Request& any = wildcard_first ? first : second;
        Request& own = wildcard_first ? second : first;
        wildcard = any.take<int>();
        specific = own.take<int>();
      }
    });
    f.engine.run();
    EXPECT_EQ(wildcard, wildcard_first ? 100 : 200) << wildcard_first;
    EXPECT_EQ(specific, wildcard_first ? 200 : 100) << wildcard_first;
  }
}

TEST(P2P, TagSkippingTheHeadLeavesItQueued) {
  Fixture f(2, 1);
  std::vector<int> got;
  f.world.launch([&](Comm comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, 100, 8);
      comm.send(1, 2, 200, 8);
      comm.send(1, 1, 300, 8);
      comm.send(1, 2, 400, 8);
    } else {
      comm.engine().delay(milliseconds(1));  // all four are queued
      for (const int tag : {2, kAnyTag, 2, 1}) {
        Request r = comm.irecv(0, tag);
        r.wait();
        got.push_back(r.take<int>());
      }
    }
  });
  f.engine.run();
  EXPECT_EQ(got, (std::vector<int>{200, 100, 400, 300}));
}

/// One point-to-point call of a random script, in the order the engine
/// ran it, and what its completion delivered.
struct Call {
  bool send = false;
  int rank = 0;  // the caller
  int peer = 0;  // a send's destination; a receive's source or kAnySource
  int tag = 0;   // a receive's may be kAnyTag
  Offset bytes = 0;
  int id = 0;  // a send's payload
  Time at = 0;
  // Observed: a watcher process waits on the call's request.
  bool done = false;
  Time done_at = -1;
  int src = -1;
  int got_tag = -1;
  int got_id = -1;
};

/// The single queue the simulator once scanned: per receiver, every
/// unexpected message in send order and every posted receive in post
/// order; a message takes the first posted receive it matches, a receive
/// the first unexpected message. Times come from a second Fabric fed the
/// same transfers in the same order.
struct Expected {
  bool done = false;
  Time at = -1;
  int src = -1;
  int tag = -1;
  int id = -1;
};

struct Coverage {
  int posted_first = 0;   // receives matched by a later send
  int unexpected = 0;     // receives matched with a queued message
  int any_source = 0;     // kAnySource receives matched
  int any_tag = 0;        // kAnyTag receives matched
  int skipped_head = 0;   // matches behind the front of a source's messages
  int rendezvous = 0;     // rendezvous sends matched
  int left_open = 0;      // receives no message matched
};

std::vector<Expected> single_queue_model(const std::vector<Call>& calls,
                                         const Topology& topology,
                                         Coverage& coverage) {
  constexpr Offset kEnvelopeBytes = 64;  // charged per message by CommState
  const Offset eager_threshold = MpiParams{}.eager_threshold;
  net::Fabric fabric(topology.nodes(), net::FabricParams{});
  struct Queued {
    std::size_t call;
    Time arrival;
  };
  std::vector<std::deque<Queued>> unexpected(topology.ranks());
  std::vector<std::deque<std::size_t>> posted(topology.ranks());
  const auto matches = [](const Call& recv, const Call& send) {
    return (recv.peer == kAnySource || recv.peer == send.rank) &&
           (recv.tag == kAnyTag || recv.tag == send.tag);
  };
  std::vector<Expected> out(calls.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const Call& call = calls[i];
    if (call.send) {
      const auto times = fabric.transfer_times(
          topology.node_of(call.rank), topology.node_of(call.peer),
          kEnvelopeBytes + call.bytes, call.at);
      const bool eager = call.bytes <= eager_threshold;
      auto& waiting = posted[static_cast<std::size_t>(call.peer)];
      const auto it = std::find_if(
          waiting.begin(), waiting.end(),
          [&](std::size_t r) { return matches(calls[r], call); });
      if (it != waiting.end()) {
        out[*it] = {true, times.arrival, call.rank, call.tag, call.id};
        out[i] = {true, eager ? times.tx_done : times.arrival};
        ++coverage.posted_first;
        coverage.any_source += calls[*it].peer == kAnySource ? 1 : 0;
        coverage.any_tag += calls[*it].tag == kAnyTag ? 1 : 0;
        coverage.rendezvous += eager ? 0 : 1;
        waiting.erase(it);
      } else {
        unexpected[static_cast<std::size_t>(call.peer)].push_back(
            {i, times.arrival});
        if (eager) out[i] = {true, times.tx_done};
      }
      continue;
    }
    auto& queued = unexpected[static_cast<std::size_t>(call.rank)];
    const auto it =
        std::find_if(queued.begin(), queued.end(), [&](const Queued& m) {
          return matches(call, calls[m.call]);
        });
    if (it == queued.end()) {
      posted[static_cast<std::size_t>(call.rank)].push_back(i);
      continue;
    }
    const Call& send = calls[it->call];
    const Time completion = std::max(call.at, it->arrival);
    out[i] = {true, completion, send.rank, send.tag, send.id};
    ++coverage.unexpected;
    coverage.any_source += call.peer == kAnySource ? 1 : 0;
    coverage.any_tag += call.tag == kAnyTag ? 1 : 0;
    if (std::any_of(queued.begin(), it, [&](const Queued& m) {
          return calls[m.call].rank == send.rank;
        })) {
      ++coverage.skipped_head;
    }
    if (send.bytes > eager_threshold) {
      out[it->call] = {true, completion};
      ++coverage.rendezvous;
    }
    queued.erase(it);
  }
  for (const auto& waiting : posted) {
    coverage.left_open += static_cast<int>(waiting.size());
  }
  return out;
}

TEST(P2P, MatchingMatchesSingleQueueModel) {
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    std::mt19937_64 rng(seed);
    const auto draw = [&rng](int lo, int hi) {  // inclusive
      return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    const int ranks = draw(4, 8);
    const Topology topology(static_cast<std::size_t>((ranks + 1) / 2), 2);
    const int nranks = static_cast<int>(topology.ranks());

    // Each rank's script: sends and receives with random peers, tags and
    // sizes, separated by random delays.
    struct Step {
      bool send;
      int peer;
      int tag;
      Offset bytes;
      Time delay;
    };
    std::vector<std::vector<Step>> scripts(static_cast<std::size_t>(nranks));
    int next_id = 0;
    for (auto& script : scripts) {
      const int steps = draw(8, 16);
      for (int s = 0; s < steps; ++s) {
        Step step{};
        step.send = draw(0, 1) == 1;
        step.peer = draw(0, nranks - 1);
        step.tag = draw(0, 2);
        if (!step.send && draw(0, 3) == 0) step.peer = kAnySource;
        if (!step.send && draw(0, 4) == 0) step.tag = kAnyTag;
        step.bytes = draw(0, 4) == 0 ? Offset{draw(300, 1024)} * units::KiB
                                     : Offset{draw(0, 64)} * units::KiB;
        step.delay = draw(0, 2) == 0 ? 0 : microseconds(draw(1, 40));
        script.push_back(step);
      }
    }

    sim::Engine engine;
    net::Fabric fabric(topology.nodes(), net::FabricParams{});
    World world(engine, fabric, topology);
    std::vector<Call> calls;
    const auto watch = [&engine, &calls](std::size_t index, Request request) {
      engine.spawn("watch", [&engine, &calls, index, request]() mutable {
        request.wait();
        Call& call = calls[index];
        call.done = true;
        call.done_at = engine.now();
        if (!call.send) {
          call.src = request.packet().src;
          call.got_tag = request.packet().tag;
          call.got_id = request.take<int>();
        }
      });
    };
    world.launch([&](Comm comm) {
      for (const Step& step : scripts[static_cast<std::size_t>(comm.rank())]) {
        comm.engine().delay(step.delay);
        Call call;
        call.send = step.send;
        call.rank = comm.rank();
        call.peer = step.peer;
        call.tag = step.tag;
        call.at = comm.engine().now();
        if (step.send) {
          call.bytes = step.bytes;
          call.id = next_id++;
        }
        calls.push_back(call);
        watch(calls.size() - 1,
              step.send ? comm.isend(step.peer, step.tag, call.id, step.bytes)
                        : comm.irecv(step.peer, step.tag));
      }
    });
    // Unmatched receives and rendezvous sends leave their watchers
    // blocked; the deadline ends the run long after the last transfer.
    engine.spawn("deadline", [&engine] { engine.delay(seconds(2)); });
    engine.stop_at(seconds(1));
    engine.run();
    ASSERT_TRUE(engine.stopped());

    const std::vector<Expected> expected =
        single_queue_model(calls, topology, coverage);
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const Call& call = calls[i];
      const Expected& want = expected[i];
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << " call " << i << " rank " << call.rank
                   << (call.send ? " send to " : " recv from ") << call.peer
                   << " tag " << call.tag);
      ASSERT_EQ(call.done, want.done);
      if (!want.done) continue;
      EXPECT_EQ(call.done_at, want.at);
      if (!call.send) {
        EXPECT_EQ(call.src, want.src);
        EXPECT_EQ(call.got_tag, want.tag);
        EXPECT_EQ(call.got_id, want.id);
      }
    }
  }
  // The scripts reach every matching path.
  EXPECT_GT(coverage.posted_first, 100);
  EXPECT_GT(coverage.unexpected, 100);
  EXPECT_GT(coverage.any_source, 50);
  EXPECT_GT(coverage.any_tag, 50);
  EXPECT_GT(coverage.skipped_head, 20);
  EXPECT_GT(coverage.rendezvous, 50);
  EXPECT_GT(coverage.left_open, 0);
}

}  // namespace
}  // namespace e10::mpi

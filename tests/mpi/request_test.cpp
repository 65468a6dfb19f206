#include "mpi/request.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/units.h"
#include "mpi/info.h"
#include "mpi/world.h"

namespace e10::mpi {
namespace {

using namespace e10::units;

TEST(Request, InvalidRequestThrows) {
  Request r;
  EXPECT_FALSE(r.valid());
  EXPECT_THROW(r.wait(), std::logic_error);
  EXPECT_THROW((void)r.test(), std::logic_error);
  EXPECT_THROW((void)r.packet(), std::logic_error);
}

TEST(Request, GrequestCompleteWakesWaiter) {
  sim::Engine engine;
  Request grequest;
  Time woke = -1;
  engine.spawn("completer", [&] {
    grequest = Request::grequest(engine);
    engine.delay(seconds(1));
    grequest.complete();
  });
  engine.spawn("waiter", [&] {
    engine.delay(milliseconds(1));  // let the completer create it
    ASSERT_TRUE(grequest.valid());
    EXPECT_FALSE(grequest.test());
    grequest.wait();
    woke = engine.now();
  });
  engine.run();
  EXPECT_EQ(woke, seconds(1));
}

TEST(Request, GrequestCompleteAtFutureTime) {
  // The cache sync thread completes requests at the modeled I/O completion
  // time without blocking itself — this is the mechanism under MPI_Wait in
  // ADIOI_GEN_Flush.
  sim::Engine engine;
  Request grequest;
  Time woke = -1;
  engine.spawn("sync-thread", [&] {
    grequest = Request::grequest(engine);
    grequest.complete_at(seconds(7));  // future completion, no blocking
    EXPECT_EQ(engine.now(), 0);
  });
  engine.spawn("app", [&] {
    engine.delay(seconds(1));
    grequest.wait();
    woke = engine.now();
  });
  engine.run();
  EXPECT_EQ(woke, seconds(7));
}

TEST(Request, WaitAllAdvancesToMax) {
  sim::Engine engine;
  std::vector<Request> reqs;
  Time done = -1;
  engine.spawn("owner", [&] {
    for (int i = 1; i <= 3; ++i) {
      Request r = Request::grequest(engine);
      r.complete_at(seconds(i));
      reqs.push_back(r);
    }
    Request::wait_all(reqs);
    done = engine.now();
  });
  engine.run();
  EXPECT_EQ(done, seconds(3));
}

TEST(Request, WaitAllSkipsInvalidEntries) {
  sim::Engine engine;
  Time done = -1;
  engine.spawn("owner", [&] {
    std::vector<Request> reqs(3);  // all invalid
    Request r = Request::grequest(engine);
    r.complete_at(seconds(2));
    reqs.push_back(r);
    Request::wait_all(reqs);
    done = engine.now();
  });
  engine.run();
  EXPECT_EQ(done, seconds(2));
}

TEST(Request, TakeMovesPayload) {
  // Eager and rendezvous sizes, each with the receive posted before and
  // after the send: the vector the sender moved in arrives with its buffer.
  for (const Offset bytes : {Offset{4 * KiB}, Offset{1 * MiB}}) {
    for (const bool recv_first : {true, false}) {
      sim::Engine engine;
      net::Fabric fabric(2, net::FabricParams{});
      World world(engine, fabric, Topology(2, 1));
      const int* sent = nullptr;
      const int* arrived = nullptr;
      std::vector<int> got;
      world.launch([&](Comm comm) {
        if (comm.rank() == 0) {
          if (recv_first) comm.engine().delay(microseconds(5));
          std::vector<int> payload(1024);
          std::iota(payload.begin(), payload.end(), 0);
          sent = payload.data();
          Request outgoing = comm.isend(1, 7, std::move(payload), bytes);
          outgoing.wait();
          EXPECT_THROW((void)outgoing.take<std::vector<int>>(),
                       std::logic_error);
        } else {
          if (!recv_first) comm.engine().delay(microseconds(5));
          Request incoming = comm.irecv(0, 7);
          incoming.wait();
          got = incoming.take<std::vector<int>>();
          arrived = got.data();
          EXPECT_THROW((void)incoming.take<std::vector<int>>(),
                       std::logic_error);
          EXPECT_THROW((void)incoming.packet(), std::logic_error);
        }
      });
      engine.run();
      ASSERT_NE(sent, nullptr);
      EXPECT_EQ(arrived, sent) << bytes << " bytes, recv_first=" << recv_first;
      ASSERT_EQ(got.size(), 1024u);
      EXPECT_EQ(got.back(), 1023);
    }
  }
  Request invalid;
  EXPECT_THROW((void)invalid.take<int>(), std::logic_error);
}

TEST(Info, SetGetMerge) {
  Info a;
  a.set("cb_nodes", "16");
  a.set("e10_cache", "enable");
  EXPECT_EQ(a.get_or("cb_nodes", ""), "16");
  EXPECT_FALSE(a.get("missing").has_value());
  EXPECT_EQ(a.get_or("missing", "dflt"), "dflt");
  EXPECT_TRUE(a.has("e10_cache"));

  Info b;
  b.set("cb_nodes", "64");
  b.set("cb_buffer_size", "16777216");
  a.merge(b);
  EXPECT_EQ(a.get_or("cb_nodes", ""), "64");
  EXPECT_EQ(a.size(), 3u);

  a.erase("e10_cache");
  EXPECT_FALSE(a.has("e10_cache"));
  EXPECT_EQ(a.keys().size(), 2u);
}

}  // namespace
}  // namespace e10::mpi

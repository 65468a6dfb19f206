// Substrate micro-benchmarks (google-benchmark): DES engine switch and
// spawn rates, PFS client write throughput, MPI alltoall/point-to-point
// overheads (a ping-pong, and a two-level fan-in that queues messages in
// many lanes), ByteStore appends, interleaved flush writes and the content
// hash of a coll_perf file, and the host cost of one generic allgather and
// allreduce, one collective open, one two-level or flat write call and one
// collective read call as the rank count grows. These establish the
// simulator's own performance envelope — how much real time a simulated
// experiment costs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/dataview.h"
#include "common/units.h"
#include "mpi/world.h"
#include "mpiio/file.h"
#include "workloads/testbed.h"

namespace {

using namespace e10;
using namespace e10::units;

void BM_EngineSwitch(benchmark::State& state) {
  // Two fibers ping-ponging via delays: measures one scheduler round trip.
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine engine;
    const std::int64_t iters = 4096;
    for (int p = 0; p < 2; ++p) {
      engine.spawn("p" + std::to_string(p), [&engine, iters] {
        for (std::int64_t i = 0; i < iters; ++i) engine.delay(1);
      });
    }
    state.ResumeTiming();
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_EngineSwitch)->Unit(benchmark::kMillisecond);

void BM_EngineSpawnTeardown(benchmark::State& state) {
  const auto fibers = state.range(0);
  for (auto _ : state) {
    sim::Engine engine;
    for (std::int64_t i = 0; i < fibers; ++i) {
      engine.spawn("p", [&engine] { engine.delay(1); });
    }
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * fibers);
}
BENCHMARK(BM_EngineSpawnTeardown)->Arg(64)->Arg(512)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_PfsClientWrite(benchmark::State& state) {
  const Offset block = state.range(0) * KiB;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine engine;
    net::Fabric fabric(6, net::FabricParams{});
    pfs::PfsParams params;
    params.target.jitter_sigma = 0.0;
    pfs::Pfs fs(engine, fabric, {1, 2, 3, 4}, 5, params, 1);
    state.ResumeTiming();
    engine.spawn("client", [&] {
      pfs::OpenOptions opts;
      opts.create = true;
      const auto h = fs.open("/pfs/bench", 0, opts).value();
      for (int i = 0; i < 64; ++i) {
        (void)fs.write(h, i * block, DataView::synthetic(1, 0, block));
      }
    });
    engine.run();
  }
  state.SetBytesProcessed(state.iterations() * 64 * block);
}
BENCHMARK(BM_PfsClientWrite)->Arg(512)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_MpiAlltoall(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    net::Fabric fabric(static_cast<std::size_t>(ranks), net::FabricParams{});
    mpi::World world(engine, fabric,
                     mpi::Topology(static_cast<std::size_t>(ranks), 1));
    world.launch([ranks](mpi::Comm comm) {
      // The dense shape: every rank sends to every rank.
      for (int i = 0; i < 8; ++i) {
        std::vector<std::pair<int, Offset>> send;
        send.reserve(static_cast<std::size_t>(ranks));
        for (int d = 0; d < ranks; ++d) send.emplace_back(d, 1);
        benchmark::DoNotOptimize(
            comm.alltoall(std::move(send), sizeof(Offset)));
      }
    });
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 8 * ranks);
}
BENCHMARK(BM_MpiAlltoall)->Arg(64)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_MpiPingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    net::Fabric fabric(2, net::FabricParams{});
    mpi::World world(engine, fabric, mpi::Topology(2, 1));
    world.launch([](mpi::Comm comm) {
      for (int i = 0; i < 512; ++i) {
        if (comm.rank() == 0) {
          comm.send(1, 0, i, 8);
          (void)comm.recv(1, 1);
        } else {
          (void)comm.recv(0, 0);
          comm.send(0, 1, i, 8);
        }
      }
    });
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_MpiPingPong)->Unit(benchmark::kMillisecond);

void BM_P2PFanIn(benchmark::State& state) {
  // The two-level exchange's message shape, 8 ranks per node: each round,
  // every member sends its leader a piece vector, and each leader forwards
  // its node's pieces to an aggregator (the first quarter of the leaders).
  // Members and leaders post their sends without waiting and race ahead
  // through the rounds, and each aggregator spends 20 us per round, so
  // messages queue unexpected in every lane. An item is one message.
  const auto ranks = state.range(0);
  constexpr int kRounds = 16;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine engine;
    const auto nodes = static_cast<std::size_t>(ranks / 8);
    net::Fabric fabric(nodes, net::FabricParams{});
    mpi::World world(engine, fabric, mpi::Topology(nodes, 8));
    state.ResumeTiming();
    world.launch([](mpi::Comm comm) {
      const int me = comm.rank();
      const int leader = comm.node_leader(me);
      const std::vector<int>& leaders = comm.node_leaders();
      const std::size_t aggregators =
          std::max<std::size_t>(1, leaders.size() / 4);
      const std::size_t index = comm.leader_index(me);
      std::vector<mpi::Request> sends;
      for (int round = 0; round < kRounds; ++round) {
        if (me != leader) {
          sends.push_back(comm.isend(leader, 2 * round,
                                     std::vector<int>(4, round), 4 * KiB));
          continue;
        }
        std::vector<int> merged;
        for (const int member : comm.node_ranks(comm.node())) {
          if (member == me) continue;
          mpi::Request gather = comm.irecv(member, 2 * round);
          gather.wait();
          const auto part = gather.take<std::vector<int>>();
          merged.insert(merged.end(), part.begin(), part.end());
        }
        sends.push_back(comm.isend(leaders[index % aggregators], 2 * round + 1,
                                   std::move(merged), 28 * KiB));
        if (index >= aggregators) continue;
        for (std::size_t l = index; l < leaders.size(); l += aggregators) {
          mpi::Request data = comm.irecv(leaders[l], 2 * round + 1);
          data.wait();
          benchmark::DoNotOptimize(data.take<std::vector<int>>());
        }
        comm.engine().delay(microseconds(20));
      }
      mpi::Request::wait_all(sends);
    });
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * ranks * kRounds);
}
BENCHMARK(BM_P2PFanIn)->Arg(64)->Arg(512)->Unit(benchmark::kMillisecond);

/// The paper's testbed resized to `ranks` ranks, 8 per node.
workloads::TestbedParams testbed_of(std::int64_t ranks) {
  workloads::TestbedParams params = workloads::deep_er_testbed();
  params.ranks_per_node = 8;
  params.compute_nodes = static_cast<std::size_t>(ranks) / 8;
  return params;
}

// The rank-scaling cases time kCalls collective calls per simulated run;
// building the platform is not timed, starting and ending its rank fibers
// is. An item is one call on every rank.
constexpr int kCalls = 4;

/// `ranks` ranks, 8 per node, each running `body` on the world
/// communicator; building the world is not timed (the kCalls convention).
template <typename Body>
void run_world(benchmark::State& state, Body body) {
  const auto ranks = static_cast<std::size_t>(state.range(0));
  state.PauseTiming();
  sim::Engine engine;
  net::Fabric fabric(ranks / 8, net::FabricParams{});
  mpi::World world(engine, fabric, mpi::Topology(ranks / 8, 8));
  world.launch(body);
  state.ResumeTiming();
  engine.run();
}

void BM_Allgather(benchmark::State& state) {
  // kCalls allgathers of one (start, end) pair per rank, the shape of the
  // offset exchange that opens every collective read and write.
  for (auto _ : state) {
    run_world(state, [](mpi::Comm comm) {
      for (int i = 0; i < kCalls; ++i) {
        benchmark::DoNotOptimize(comm.allgather(
            std::make_pair(Offset{comm.rank()}, Offset{i}),
            Offset{2} * sizeof(Offset)));
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
}
BENCHMARK(BM_Allgather)->Arg(64)->Arg(512)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_Allreduce(benchmark::State& state) {
  // kCalls max-allreduces of one int per rank, the error-code agreement
  // that closes every collective call.
  for (auto _ : state) {
    run_world(state, [](mpi::Comm comm) {
      for (int i = 0; i < kCalls; ++i) {
        benchmark::DoNotOptimize(comm.allreduce(
            comm.rank() + i, [](int a, int b) { return std::max(a, b); }));
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
}
BENCHMARK(BM_Allreduce)->Arg(64)->Arg(512)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_CollectiveOpen(benchmark::State& state) {
  // Open and close one file, cache off: aggregator selection and the
  // two-level decision read the communicator's node table.
  for (auto _ : state) {
    state.PauseTiming();
    workloads::Platform p(testbed_of(state.range(0)));
    p.launch([&p](mpi::Comm comm) {
      for (int i = 0; i < kCalls; ++i) {
        auto file = mpiio::File::open(p.ctx, comm, "/pfs/bench_open",
                                      adio::amode::create | adio::amode::rdwr);
        benchmark::DoNotOptimize(file.is_ok() && file.value().close().is_ok());
      }
    });
    state.ResumeTiming();
    p.run();
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
}
BENCHMARK(BM_CollectiveOpen)->Arg(64)->Arg(512)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_TwoLevelWriteCall(benchmark::State& state) {
  // kCalls two-level write_at_all calls of 4 KiB per rank between one open
  // and close: each call's offset exchange folds every rank's region into
  // its node's hull once, and every rank reads the shared result.
  mpi::Info info;
  info.set("romio_cb_write", "enable");
  info.set("e10_two_level_flag", "enable");
  for (auto _ : state) {
    state.PauseTiming();
    workloads::Platform p(testbed_of(state.range(0)));
    p.launch([&p, &info](mpi::Comm comm) {
      auto file = mpiio::File::open(p.ctx, comm, "/pfs/bench_two_level",
                                    adio::amode::create | adio::amode::rdwr,
                                    info);
      if (!file.is_ok()) return;
      for (int i = 0; i < kCalls; ++i) {
        const Offset offset = (Offset{i} * comm.size() + comm.rank()) * 4 * KiB;
        benchmark::DoNotOptimize(
            file.value()
                .write_at_all(offset, DataView::synthetic(1, offset, 4 * KiB))
                .is_ok());
      }
      (void)file.value().close();
    });
    state.ResumeTiming();
    p.run();
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
}
BENCHMARK(BM_TwoLevelWriteCall)->Arg(64)->Arg(512)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_FlatWriteCall(benchmark::State& state) {
  // kCalls flat write_at_all calls of 4 KiB per rank between one open and
  // close: every round opens with the counts alltoall to the aggregators.
  mpi::Info info;
  info.set("romio_cb_write", "enable");
  for (auto _ : state) {
    state.PauseTiming();
    workloads::Platform p(testbed_of(state.range(0)));
    p.launch([&p, &info](mpi::Comm comm) {
      auto file = mpiio::File::open(p.ctx, comm, "/pfs/bench_flat",
                                    adio::amode::create | adio::amode::rdwr,
                                    info);
      if (!file.is_ok()) return;
      for (int i = 0; i < kCalls; ++i) {
        const Offset offset = (Offset{i} * comm.size() + comm.rank()) * 4 * KiB;
        benchmark::DoNotOptimize(
            file.value()
                .write_at_all(offset, DataView::synthetic(1, offset, 4 * KiB))
                .is_ok());
      }
      (void)file.value().close();
    });
    state.ResumeTiming();
    p.run();
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
}
BENCHMARK(BM_FlatWriteCall)->Arg(64)->Arg(512)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_CollectiveReadCall(benchmark::State& state) {
  // One collective write of 4 KiB per rank, then kCalls read_at_all calls
  // of it: every round opens with the request alltoall to the aggregators.
  // An item is one read call on every rank.
  mpi::Info info;
  info.set("romio_cb_write", "enable");
  info.set("romio_cb_read", "enable");
  for (auto _ : state) {
    state.PauseTiming();
    workloads::Platform p(testbed_of(state.range(0)));
    p.launch([&p, &info](mpi::Comm comm) {
      auto file = mpiio::File::open(p.ctx, comm, "/pfs/bench_read",
                                    adio::amode::create | adio::amode::rdwr,
                                    info);
      if (!file.is_ok()) return;
      const Offset offset = Offset{comm.rank()} * 4 * KiB;
      (void)file.value().write_at_all(offset,
                                      DataView::synthetic(1, offset, 4 * KiB));
      for (int i = 0; i < kCalls; ++i) {
        benchmark::DoNotOptimize(
            file.value().read_at_all(offset, 4 * KiB).is_ok());
      }
      (void)file.value().close();
    });
    state.ResumeTiming();
    p.run();
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
}
BENCHMARK(BM_CollectiveReadCall)->Arg(64)->Arg(512)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_ByteStoreWrite(benchmark::State& state) {
  for (auto _ : state) {
    ByteStore store;
    for (Offset i = 0; i < 4096; ++i) {
      store.write(i * 4 * MiB, DataView::synthetic(1, i * 4 * MiB, 4 * MiB));
    }
    benchmark::DoNotOptimize(store.extent_end());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ByteStoreWrite)->Unit(benchmark::kMillisecond);

void BM_ByteStoreInterleavedWrites(benchmark::State& state) {
  // The sync threads' flush pattern into one Flash-IO global file at 512
  // ranks: `writers` file domains drained round-robin in 512 KiB pieces
  // after a 1 MiB header, 24 datasets of 2.5 MiB per rank, each rank's
  // block one run of its own seed. The closing byte_at times the final
  // consolidation.
  const Offset writers = state.range(0);
  constexpr Offset kRanks = 512;
  constexpr Offset kVariables = 24;
  constexpr Offset kPiece = 512 * KiB;
  constexpr Offset kBlock = 5 * kPiece;
  constexpr Offset kHeader = 1 * MiB;
  constexpr Offset kDataset = kRanks * kBlock;
  const Offset domain = kDataset / writers;
  const Offset header_piece = kHeader / writers;
  std::int64_t writes = 0;
  for (auto _ : state) {
    ByteStore store;
    writes = 0;
    for (Offset w = 0; w < writers; ++w, ++writes) {
      store.write(w * header_piece,
                  DataView::synthetic(0xEAD5, w * header_piece, header_piece));
    }
    for (Offset v = 0; v < kVariables; ++v) {
      for (Offset k = 0; k < domain / kPiece; ++k) {
        for (Offset w = 0; w < writers; ++w, ++writes) {
          const Offset at = w * domain + k * kPiece;
          store.write(kHeader + v * kDataset + at,
                      DataView::synthetic(
                          static_cast<std::uint64_t>(at / kBlock),
                          v * kBlock + at % kBlock, kPiece));
        }
      }
    }
    benchmark::DoNotOptimize(store.byte_at(kHeader));
  }
  state.SetItemsProcessed(state.iterations() * writes);
}
BENCHMARK(BM_ByteStoreInterleavedWrites)->Arg(32)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_ByteStoreContentHash(benchmark::State& state) {
  // One coll_perf file at 512 ranks as the PFS stores it: 64 aggregators
  // drain their 512 MiB file domains round-robin in 4 MiB stripe writes,
  // 8,192 in all, each a rope of four ranks' 1 MiB rows (a seed per rank,
  // the row's place in the rank's block as origin). A rewrite of the first
  // stripe leaves the log dirty, so the timed hash sweeps it first.
  constexpr Offset kRow = 1 * MiB;
  constexpr Offset kStripe = 4 * kRow;
  constexpr Offset kWriters = 64;
  constexpr Offset kDomain = 32 * GiB / kWriters;
  const auto stripe_at = [](Offset at) {
    std::vector<DataView> rows;
    for (Offset pos = at; pos < at + kStripe; pos += kRow) {
      // 8 MiB array rows (x, y) of 8 ranks' pieces; blocks of 4 x 16 rows.
      const Offset x = pos / (8 * kRow) / 128;
      const Offset y = pos / (8 * kRow) % 128;
      const Offset rank = x / 4 * 64 + y / 16 * 8 + pos % (8 * kRow) / kRow;
      rows.push_back(
          DataView::synthetic(1000 + static_cast<std::uint64_t>(rank),
                              (x % 4 * 16 + y % 16) * kRow, kRow));
    }
    return DataView::concat(rows);
  };
  std::int64_t writes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ByteStore store;
    writes = 0;
    for (Offset k = 0; k < kDomain / kStripe; ++k) {
      for (Offset w = 0; w < kWriters; ++w, ++writes) {
        const Offset at = w * kDomain + k * kStripe;
        store.write(at, stripe_at(at));
      }
    }
    store.write(0, stripe_at(0));
    state.ResumeTiming();
    benchmark::DoNotOptimize(store.content_hash());
  }
  state.SetItemsProcessed(state.iterations() * writes);
}
BENCHMARK(BM_ByteStoreContentHash)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

// Substrate micro-benchmarks (google-benchmark): DES engine switch and
// spawn rates, PFS client write throughput, MPI alltoall/point-to-point
// overheads, ByteStore appends, and the host cost of one generic allgather
// and allreduce, one collective open and one two-level write call as the
// rank count grows. These establish the simulator's own performance
// envelope — how much real time a simulated experiment costs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <utility>

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
BENCHMARK(BM_EngineSpawnTeardown)->Arg(64)->Arg(512)->Unit(benchmark::kMillisecond);

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
      std::vector<Offset> send(static_cast<std::size_t>(ranks), 1);
      for (int i = 0; i < 8; ++i) (void)comm.alltoall(send, sizeof(Offset));
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

}  // namespace

BENCHMARK_MAIN();

// The simulation side of the repository benchmark. It runs one named
// 512-rank workload of the DEEP-ER testbed and prints one JSON document on
// stdout; perfbench/run.py builds it, runs it, checks the output and
// reports the metrics.
//
//   perfbench reference <workload> <seed>
//       The output oracle: one cache-disabled, flat 64_64m run of the
//       workload's kernel (coll_perf or Flash-IO) at the same seed.
//   perfbench timed <workload> <seed> <setups>
//       One untraced repetition and the peak resident set size of this
//       process, then <setups> experiments abandoned at their first write
//       call, which time set-up alone.
//   perfbench traced <workload> <seed> <untraced_host_s>
//       One traced repetition, which yields the per-layer ledger.
//
// A process runs one repetition: the host times of repetitions that share a
// process are not independent samples (on flashio_twolevel_32x4m they
// correlated 0.53 from one to the next, against 0.10 between fresh
// processes). Every repetition is one workloads::run_experiment call, with
// the workload wrapped in a Probe around its MPI-IO write calls. Untraced,
// the probe takes one host timestamp, at the first rank's first write call
// (setup_s), and keeps the virtual time the last rank leaves each file's
// write calls (final_flush_s); nothing else is timed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "workloads/experiment.h"
#include "workloads/testbed.h"
#include "workloads/workload.h"

namespace {

using namespace e10;
using obs::Json;
using workloads::CacheCase;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kernel { coll_perf, flash_io };

struct WorkloadDef {
  const char* name;
  Kernel kernel;
  int aggregators;
  Offset cb_buffer_size;
  CacheCase cache_case;
  bool two_level;
};

// Why each one is here is recorded in perfbench/catalog.json.
constexpr WorkloadDef kWorkloads[] = {
    {"collperf_direct_64x64m", Kernel::coll_perf, 64, 64 * units::MiB,
     CacheCase::disabled, false},
    {"flashio_twolevel_32x4m", Kernel::flash_io, 32, 4 * units::MiB,
     CacheCase::enabled, true},
};

// The DEEP-ER testbed every workload runs on.
constexpr std::size_t kNodes = 64;
constexpr std::size_t kRanksPerNode = 8;
constexpr int kRanks = static_cast<int>(kNodes * kRanksPerNode);
constexpr int kFiles = 4;
constexpr Offset kStripeUnit = 4 * units::MiB;
constexpr std::size_t kStripeCount = 4;
constexpr Offset kIndWrBufferSize = 512 * units::KiB;
constexpr int kSyncStreams = 4;

/// The output oracle of a workload: its kernel, cache disabled, flat
/// exchange, 64 aggregators with 64 MiB buffers.
WorkloadDef reference_of(const WorkloadDef& w) {
  return {w.name, w.kernel, 64, 64 * units::MiB, CacheCase::disabled, false};
}

std::unique_ptr<workloads::Workload> make_kernel(Kernel kernel) {
  if (kernel == Kernel::coll_perf) {
    return std::make_unique<workloads::CollPerfWorkload>(
        workloads::collperf_paper_params(kRanks));
  }
  return std::make_unique<workloads::FlashIoWorkload>();
}

/// ranks x bytes per rank x files, from the kernels' parameters.
Offset expected_bytes(Kernel kernel) {
  if (kernel == Kernel::coll_perf) {
    const auto p = workloads::collperf_paper_params(kRanks);
    return kRanks * p.block[0] * p.block[1] * p.block[2] * p.elem_bytes *
           kFiles;
  }
  const workloads::FlashIoWorkload::Params p;
  return (kRanks * p.blocks_per_proc * p.variables * p.chunk_bytes +
          p.header_bytes) *
         kFiles;
}

workloads::ExperimentSpec make_spec(const WorkloadDef& w, std::uint64_t seed) {
  workloads::ExperimentSpec spec;
  spec.testbed = workloads::deep_er_testbed();
  spec.testbed.compute_nodes = kNodes;
  spec.testbed.ranks_per_node = kRanksPerNode;
  spec.testbed.pfs.default_stripe_unit = kStripeUnit;
  spec.testbed.pfs.default_stripe_count = kStripeCount;
  spec.testbed.seed = seed;
  spec.aggregators = w.aggregators;
  spec.cb_buffer_size = w.cb_buffer_size;
  spec.cache_case = w.cache_case;
  spec.pipeline = true;
  spec.sync_streams = kSyncStreams;
  spec.flush_coalesce = true;
  spec.two_level = w.two_level;
  spec.workflow.base_path =
      w.kernel == Kernel::coll_perf ? "/pfs/coll_perf" : "/pfs/flash_io";
  spec.workflow.num_files = kFiles;
  spec.workflow.compute_delay = units::seconds(30);
  spec.workflow.include_last_phase = false;
  return spec;
}

/// Every hint the spec must open its files with. A default changed in
/// experiment_hints() (ind_wr_buffer_size has no spec field) fails the run
/// here instead of moving the workload silently.
mpi::Info pinned_hints(const WorkloadDef& w) {
  mpi::Info info;
  info.set("romio_cb_write", "enable");
  info.set("cb_nodes", std::to_string(w.aggregators));
  info.set("cb_buffer_size", std::to_string(w.cb_buffer_size));
  info.set("striping_unit", std::to_string(kStripeUnit));
  info.set("striping_factor", std::to_string(kStripeCount));
  info.set("ind_wr_buffer_size", std::to_string(kIndWrBufferSize));
  info.set("e10_pipeline_flag", "enable");
  info.set("e10_two_level_flag", w.two_level ? "enable" : "disable");
  info.set("e10_sync_streams", std::to_string(kSyncStreams));
  info.set("e10_flush_coalesce_flag", "enable");
  if (w.cache_case == CacheCase::enabled) {
    info.set("e10_cache", "enable");
    info.set("e10_cache_path", "/scratch");
    info.set("e10_cache_flush_flag", "flush_immediate");
    info.set("e10_cache_discard_flag", "enable");
  } else {
    info.set("e10_cache", "disable");
  }
  return info;
}

Json hints_json(const mpi::Info& info) {
  Json out = Json::object();
  for (const std::string& key : info.keys()) {
    out.set(key, Json::str(info.get_or(key, "")));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Probe: the bench-side wrapper around the workload's MPI-IO write calls
// ---------------------------------------------------------------------------

/// One file's write calls: first rank in to last rank out.
struct Window {
  bool entered = false;
  double host_in_s = 0.0;  // host seconds since the experiment started
  double host_out_s = 0.0;
  Time virt_in = 0;
  Time virt_out = 0;
  std::uint64_t events_in = 0;
  std::uint64_t events_out = 0;
};

/// Layer totals, read after the run through the layers' public accessors.
struct LayerTotals {
  bool read = false;
  std::string error;
  Time makespan = 0;
  Offset net_inter_bytes = 0;
  Offset net_intra_bytes = 0;
  Offset nvm_written = 0;
  Offset nvm_read = 0;
  Time nvm_busy_max = 0;
  Offset server_written = 0;
  Time server_busy_max = 0;
  Time server_busy_sum = 0;
  std::uint64_t server_stream_misses = 0;
  pfs::PfsStats pfs;
  Offset file_bytes = 0;  // sizes of the output files in the global namespace
};

/// Thrown by a set-up-only probe at the first write call: the engine
/// rethrows it out of run_experiment after tearing the rank fibers down.
struct SetupReached {};

struct ProbeLog {
  Clock::time_point start;
  bool traced = false;
  bool setup_only = false;
  std::string base_path;
  std::optional<double> first_entry_s;
  std::vector<Window> windows = std::vector<Window>(kFiles);
  /// When the last byte of the last file is durable: the later of the end
  /// of the run (the last close) and the PFS server media draining their
  /// write-back buffers.
  std::optional<Time> durable_at;
  LayerTotals layers;
};

/// run_experiment owns its Platform; the workload only sees the IoContext
/// wired into every file, which is Platform::ctx. Recover the platform from
/// it, and check every other reference the context holds against it.
workloads::Platform& platform_of(adio::IoContext& ctx) {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
  constexpr std::size_t kCtxOffset = offsetof(workloads::Platform, ctx);
#pragma GCC diagnostic pop
  auto* platform = std::launder(reinterpret_cast<workloads::Platform*>(
      reinterpret_cast<char*>(&ctx) - kCtxOffset));
  if (&platform->engine != &ctx.engine || &platform->pfs != &ctx.pfs ||
      &platform->lfs != &ctx.lfs || &platform->locks != &ctx.locks) {
    throw std::logic_error("perfbench: file context is not a Platform's");
  }
  return *platform;
}

Time durable_at(const workloads::Platform& platform) {
  Time at = platform.engine.now();
  for (std::size_t s = 0; s < platform.pfs.params().data_servers; ++s) {
    at = std::max(at, platform.pfs.server_device(s).next_free());
  }
  return at;
}

void read_layers(const workloads::Platform& platform, const std::string& base,
                 LayerTotals& out) {
  out.makespan = platform.engine.now();
  out.net_inter_bytes = platform.fabric.inter_node_bytes();
  out.net_intra_bytes = platform.fabric.intra_node_bytes();
  for (std::size_t node = 0; node < platform.lfs.size(); ++node) {
    const storage::Device& nvm = platform.lfs.at(node).device();
    out.nvm_written += nvm.bytes_written();
    out.nvm_read += nvm.bytes_read();
    out.nvm_busy_max = std::max(out.nvm_busy_max, nvm.busy_time());
  }
  for (std::size_t s = 0; s < platform.pfs.params().data_servers; ++s) {
    const storage::Device& server = platform.pfs.server_device(s);
    out.server_written += server.bytes_written();
    out.server_busy_max = std::max(out.server_busy_max, server.busy_time());
    out.server_busy_sum += server.busy_time();
    out.server_stream_misses += server.stream_misses();
  }
  out.pfs = platform.pfs.stats();
  for (int k = 0; k < kFiles; ++k) {
    const auto info = platform.pfs.stat_path(base + "_" + std::to_string(k));
    if (info.is_ok()) out.file_bytes += info.value().size;
  }
  out.read = true;
}

class Probe final : public workloads::Workload {
 public:
  Probe(std::unique_ptr<workloads::Workload> inner, ProbeLog* log)
      : inner_(std::move(inner)), log_(log) {}
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// run_experiment destroys the workload after the run, the report and the
  /// fingerprint, and before the platform: the moment the layer totals are
  /// final and still readable.
  ~Probe() override {
    if (platform_ == nullptr) return;
    log_->durable_at = durable_at(*platform_);
    if (!log_->traced) return;
    try {
      read_layers(*platform_, log_->base_path, log_->layers);
    } catch (const std::exception& e) {
      log_->layers.error = e.what();
    }
  }

  std::string name() const override { return inner_->name(); }
  Offset bytes_per_rank(const mpi::Comm& comm) const override {
    return inner_->bytes_per_rank(comm);
  }

  Status write_file(mpiio::File& file, const mpi::Comm& comm,
                    int file_index) const override {
    if (!log_->first_entry_s) log_->first_entry_s = seconds_since(log_->start);
    if (log_->setup_only) throw SetupReached{};
    if (platform_ == nullptr) platform_ = &platform_of(*file.raw()->ctx);
    const sim::Engine& engine = comm.engine();
    Window& w = log_->windows.at(static_cast<std::size_t>(file_index));
    if (!log_->traced) {
      const Status status = inner_->write_file(file, comm, file_index);
      w.virt_out = std::max(w.virt_out, engine.now());
      return status;
    }

    if (!w.entered) {
      w.entered = true;
      w.host_in_s = seconds_since(log_->start);
      w.virt_in = engine.now();
      w.events_in = engine.stats().events;
    }
    w.virt_in = std::min(w.virt_in, engine.now());
    const Status status = inner_->write_file(file, comm, file_index);
    w.host_out_s = seconds_since(log_->start);
    w.virt_out = std::max(w.virt_out, engine.now());
    w.events_out = engine.stats().events;
    return status;
  }

 private:
  std::unique_ptr<workloads::Workload> inner_;
  ProbeLog* log_;
  mutable const workloads::Platform* platform_ = nullptr;
};

// ---------------------------------------------------------------------------
// One repetition
// ---------------------------------------------------------------------------

/// The number at `path` in the run report; 0 when absent, as the report
/// leaves out instruments a run never touched.
double report_number(const workloads::ExperimentResult& r,
                     std::initializer_list<std::string_view> path) {
  const Json* node = &r.report;
  for (const std::string_view key : path) {
    node = node->find(key);
    if (node == nullptr) return 0.0;
  }
  return node->as_number();
}

double counter(const workloads::ExperimentResult& r, std::string_view name) {
  return report_number(r, {"metrics", "counters", name});
}

double derived(const workloads::ExperimentResult& r, std::string_view name) {
  return report_number(r, {"derived", name});
}

Json integer(std::uint64_t value) {
  return Json::integer(static_cast<std::int64_t>(value));
}

struct Repetition {
  Json fields = Json::object();
  double host_s = 0.0;
  bool ok = false;
  // Traced repetitions keep what the ledger is computed from.
  ProbeLog log;
  std::optional<workloads::ExperimentResult> result;
};

/// The fields run.py checks repetitions on: virtual times, engine counters,
/// content, bytes, and the failure counters that must stay zero.
Json result_fields(const WorkloadDef& w, const workloads::ExperimentResult& r,
                   const ProbeLog& log) {
  if (!log.first_entry_s || !log.durable_at) {
    throw std::runtime_error("the probe saw no write call");
  }
  Json out = Json::object();
  out.set("checksum", Json::str(r.content_checksum));
  out.set("bandwidth_gib", Json::number(r.bandwidth_gib));
  out.set("io_time_ns", Json::integer(r.workflow.io_time));
  out.set("final_flush_ns",
          Json::integer(*log.durable_at - log.windows.back().virt_out));
  Json write_ns = Json::array();
  Json residual_ns = Json::array();
  for (const workloads::PhaseTiming& phase : r.workflow.phases) {
    write_ns.push(Json::integer(phase.write_time));
    residual_ns.push(Json::integer(phase.residual_close));
  }
  out.set("write_ns", std::move(write_ns));
  out.set("residual_ns", std::move(residual_ns));
  const sim::EngineStats& stats = r.engine_stats;
  out.set("events", integer(stats.events));
  out.set("switches", integer(stats.switches));
  out.set("spawned", integer(stats.spawned));
  out.set("ready_hwm", integer(stats.max_ready_depth));
  out.set("stack_reuses", integer(stats.stack_reuses));
  out.set("total_bytes", Json::integer(r.workflow.total_bytes));
  out.set("expected_bytes", Json::integer(expected_bytes(w.kernel)));
  out.set("sync_abandoned", integer(r.sync.abandoned));
  out.set("fallback_writes",
          Json::number(counter(r, obs::names::kCacheFallbackWrites)));
  out.set("open_spans", integer(r.trace_open_spans));
  return out;
}

workloads::WorkloadFactory probe_factory(const WorkloadDef& w, ProbeLog& log) {
  return [&w, &log](const workloads::TestbedParams&) {
    return std::make_unique<Probe>(make_kernel(w.kernel), &log);
  };
}

Repetition run_once(const WorkloadDef& w, std::uint64_t seed, bool traced) {
  workloads::ExperimentSpec spec = make_spec(w, seed);
  spec.critical_path = traced;
  ProbeLog log;
  log.traced = traced;
  log.base_path = spec.workflow.base_path;

  Repetition rep;
  try {
    if (workloads::experiment_hints(spec) != pinned_hints(w)) {
      throw std::runtime_error(
          "experiment hints differ from the pinned workload hints");
    }
    log.start = Clock::now();
    workloads::ExperimentResult result =
        workloads::run_experiment(spec, probe_factory(w, log));
    rep.host_s = seconds_since(log.start);
    rep.fields = result_fields(w, result, log);
    rep.fields.set("host_s", Json::number(rep.host_s));
    rep.fields.set("setup_s", Json::number(*log.first_entry_s));
    if (traced) {
      if (!log.layers.read) {
        throw std::runtime_error("layer totals unread: " + log.layers.error);
      }
      rep.result = std::move(result);
    }
    rep.ok = true;
  } catch (const std::exception& e) {
    rep.fields.set("error", Json::str(e.what()));
  }
  rep.log = std::move(log);
  return rep;
}

long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// The set-up time of one experiment that is abandoned at its first write
/// call.
double setup_once(const WorkloadDef& w, std::uint64_t seed) {
  const workloads::ExperimentSpec spec = make_spec(w, seed);
  ProbeLog log;
  log.setup_only = true;
  log.start = Clock::now();
  try {
    (void)workloads::run_experiment(spec, probe_factory(w, log));
  } catch (const SetupReached&) {
    return *log.first_entry_s;
  }
  throw std::logic_error("set-up-only experiment ran to completion");
}

// ---------------------------------------------------------------------------
// The per-layer ledger of a traced repetition
// ---------------------------------------------------------------------------

Json ledger(const Repetition& traced, double untraced_host_s) {
  const workloads::ExperimentResult& r = *traced.result;
  const ProbeLog& log = traced.log;
  const LayerTotals& layers = log.layers;
  constexpr double kGiB = static_cast<double>(units::GiB);
  const auto gib = [kGiB](double bytes) { return bytes / kGiB; };
  const auto secs = [](Time t) { return units::to_seconds(t); };
  const auto share = [](Time part, Time whole) {
    return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                     : 0.0;
  };
  const auto phase_s = [&r, &secs](prof::Phase phase) {
    const auto it = r.breakdown.find(phase);
    return it != r.breakdown.end() ? secs(it->second) : 0.0;
  };

  Json m = Json::object();
  const auto put = [&m](const char* name, double value) {
    m.set(name, Json::number(value));
  };

  const sim::EngineStats& stats = r.engine_stats;
  put("sim.events", static_cast<double>(stats.events));
  put("sim.switches", static_cast<double>(stats.switches));
  put("sim.ready_hwm", static_cast<double>(stats.max_ready_depth));
  put("sim.ns_per_event",
      stats.events > 0 ? untraced_host_s * 1e9 / static_cast<double>(stats.events)
                       : 0.0);

  double window_host_s = 0.0;
  double gap_host_s = 0.0;
  Time window_virt = 0;
  std::uint64_t window_events = 0;
  for (std::size_t k = 0; k < log.windows.size(); ++k) {
    const Window& w = log.windows[k];
    window_host_s += w.host_out_s - w.host_in_s;
    window_virt += w.virt_out - w.virt_in;
    window_events += w.events_out - w.events_in;
    if (k + 1 < log.windows.size()) {
      gap_host_s += log.windows[k + 1].host_in_s - w.host_out_s;
    }
  }
  put("mpiio.write_host_s", window_host_s);
  put("mpiio.write_virt_s", secs(window_virt));
  put("mpiio.write_ns_per_event",
      window_events > 0
          ? window_host_s * 1e9 / static_cast<double>(window_events)
          : 0.0);
  put("workloads.head_host_s", log.windows.front().host_in_s);
  put("workloads.gap_host_s", gap_host_s);
  put("workloads.tail_host_s", traced.host_s - log.windows.back().host_out_s);

  put("adio.offset_exchange_s", phase_s(prof::Phase::offset_exchange));
  put("adio.calc_s", phase_s(prof::Phase::calc));
  put("adio.shuffle_s", phase_s(prof::Phase::shuffle_intra) +
                            phase_s(prof::Phase::shuffle_all2all) +
                            phase_s(prof::Phase::shuffle_inter) +
                            phase_s(prof::Phase::exchange));
  put("adio.write_contig_s", phase_s(prof::Phase::write_contig));
  put("adio.post_write_s", phase_s(prof::Phase::post_write));
  put("adio.flush_wait_s", phase_s(prof::Phase::flush_wait));
  put("adio.not_hidden_sync_s", phase_s(prof::Phase::not_hidden_sync));
  put("adio.pipeline.overlap_ratio", derived(r, "write_round.overlap_ratio"));
  put("adio.pipeline.stalls", derived(r, "write_round.stalls"));
  namespace names = obs::names;
  put("adio.two_level.intra_gib", gib(counter(r, names::kTwoLevelIntraBytes)));
  put("adio.two_level.inter_gib", gib(counter(r, names::kTwoLevelInterBytes)));
  put("adio.two_level.msgs", counter(r, names::kTwoLevelIntraMsgs) +
                                 counter(r, names::kTwoLevelInterMsgs));

  // The flat exchange disseminates every round with an alltoall; the
  // two-level exchange has none, and the same histogram then observes its
  // inter-node segments, which adio.two_level.inter_gib already counts.
  put("mpi.alltoall_send_gib",
      r.report.at("config").at("two_level").as_string() == "off"
          ? gib(report_number(r, {"metrics", "histograms",
                                  names::kAlltoallSendBytes, "sum"}))
          : 0.0);
  put("net.inter_node_gib",
      gib(static_cast<double>(layers.net_inter_bytes)));
  put("net.intra_node_gib",
      gib(static_cast<double>(layers.net_intra_bytes)));

  put("cache.bytes_cached_gib", gib(counter(r, names::kCacheBytes)));
  put("cache.fallback_writes", counter(r, names::kCacheFallbackWrites));
  put("cache.sync.requests", static_cast<double>(r.sync.requests));
  put("cache.sync.busy_s", secs(r.sync.busy_time));
  put("cache.sync.queue_hwm",
      static_cast<double>(r.sync.queue_depth_high_water));
  put("cache.sync.coalesce_ratio", r.sync_coalesce_ratio);
  put("cache.sync.flush_gib_per_s", r.sync_flush_bandwidth_gib);
  put("cache.sync.stream_overlap", r.sync_stream_overlap_ratio);
  put("cache.sync.retries", static_cast<double>(r.sync.retries));
  put("cache.sync.abandoned", static_cast<double>(r.sync.abandoned));
  put("cache.flush_overlap_ratio", r.flush_overlap_ratio);

  put("lfs.nvm.write_gib", gib(static_cast<double>(layers.nvm_written)));
  put("lfs.nvm.read_gib", gib(static_cast<double>(layers.nvm_read)));
  put("lfs.nvm.busy_max_s", secs(layers.nvm_busy_max));
  put("lfs.nvm.util_max", share(layers.nvm_busy_max, layers.makespan));

  put("pfs.server.write_gib", gib(static_cast<double>(layers.server_written)));
  put("pfs.server.busy_max_s", secs(layers.server_busy_max));
  put("pfs.server.util_max", share(layers.server_busy_max, layers.makespan));
  put("pfs.server.gib_per_busy_s",
      layers.server_busy_sum > 0
          ? gib(static_cast<double>(layers.server_written)) /
                secs(layers.server_busy_sum)
          : 0.0);
  put("pfs.server.stream_misses",
      static_cast<double>(layers.server_stream_misses));
  put("pfs.metadata_ops", static_cast<double>(layers.pfs.metadata_ops));
  put("pfs.lock.waits", static_cast<double>(layers.pfs.lock_waits));
  put("pfs.lock.wait_s", secs(layers.pfs.lock_wait_time));
  put("pfs.lock.handoffs", static_cast<double>(layers.pfs.lock_handoffs));

  const Json* categories = r.critical_path.find("categories");
  for (const char* category :
       {"shuffle", "write", "flush", "lock_wait", "nic_contention", "compute",
        "coordination", "idle"}) {
    const Json* entry =
        categories != nullptr ? categories->find(category) : nullptr;
    const Json* fraction =
        entry != nullptr ? entry->find("fraction") : nullptr;
    put(("cp." + std::string(category)).c_str(),
        fraction != nullptr ? fraction->as_number() : 0.0);
  }
  put("cp.attributed", r.attributed_fraction);
  return m;
}

/// The traced repetition's host timeline and raw layer totals, for the
/// checks in run.py and the trace file beside the results.
Json timeline(const Repetition& traced) {
  const ProbeLog& log = traced.log;
  Json out = Json::object();
  Json windows = Json::array();
  for (const Window& w : log.windows) {
    Json row = Json::object();
    row.set("host_in_s", Json::number(w.host_in_s));
    row.set("host_out_s", Json::number(w.host_out_s));
    row.set("virt_in_ns", Json::integer(w.virt_in));
    row.set("virt_out_ns", Json::integer(w.virt_out));
    row.set("events_in", integer(w.events_in));
    row.set("events_out", integer(w.events_out));
    windows.push(std::move(row));
  }
  out.set("windows", std::move(windows));
  out.set("makespan_ns", Json::integer(log.layers.makespan));
  out.set("pfs_bytes_written", Json::integer(log.layers.pfs.bytes_written));
  out.set("file_bytes", Json::integer(log.layers.file_bytes));
  out.set("bottleneck", Json::str(traced.result->bottleneck));
  return out;
}

const WorkloadDef* find_workload(std::string_view name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench reference <workload> <seed>\n"
               "       perfbench timed <workload> <seed> <setups>\n"
               "       perfbench traced <workload> <seed> <untraced_host_s>\n"
               "workloads:");
  for (const WorkloadDef& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

/// `arg` is the number of set-up samples after the repetition (timed) or
/// the untraced median host seconds that sim.ns_per_event divides (traced).
int run_mode(std::string_view mode, const WorkloadDef& w, std::uint64_t seed,
             double arg) {
  Json doc = Json::object();
  doc.set("mode", Json::str(std::string(mode)));
  doc.set("workload", Json::str(w.name));
  doc.set("seed", integer(seed));
  if (mode == "reference") {
    const WorkloadDef reference = reference_of(w);
    Json runs = Json::array();
    runs.push(run_once(reference, seed, /*traced=*/false).fields);
    doc.set("hints", hints_json(pinned_hints(reference)));
    doc.set("runs", std::move(runs));
  } else if (mode == "timed") {
    const Repetition rep = run_once(w, seed, /*traced=*/false);
    Json runs = Json::array();
    runs.push(rep.fields);
    doc.set("hints", hints_json(pinned_hints(w)));
    doc.set("runs", std::move(runs));
    doc.set("peak_rss_kib", Json::integer(peak_rss_kib()));
    Json setups = Json::array();
    for (int n = 0; rep.ok && n < static_cast<int>(arg); ++n) {
      setups.push(Json::number(setup_once(w, seed)));
    }
    doc.set("setup_s", std::move(setups));
  } else if (mode == "traced") {
    const Repetition traced = run_once(w, seed, /*traced=*/true);
    doc.set("hints", hints_json(pinned_hints(w)));
    doc.set("traced", traced.fields);
    if (traced.ok) {
      doc.set("timeline", timeline(traced));
      doc.set("ledger", ledger(traced, arg));
    }
  } else {
    return usage();
  }
  std::printf("%s\n", doc.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string_view mode = argv[1];
  const WorkloadDef* workload = find_workload(argv[2]);
  char* end = nullptr;
  const std::uint64_t seed = std::strtoull(argv[3], &end, 10);
  if (workload == nullptr || end == argv[3] || *end != '\0') return usage();
  double arg = 0.0;
  if (mode != "reference") {
    if (argc < 5) return usage();
    arg = std::strtod(argv[4], &end);
    if (end == argv[4] || *end != '\0' || !(arg >= 0.0)) return usage();
  }
  try {
    return run_mode(mode, *workload, seed, arg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

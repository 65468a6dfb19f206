// bench_sweep: the one driver behind every evaluation sweep.
//
//   bench_sweep <spec> [flags]
//
// A spec is a row of kSpecs below: the workload and its base path, the
// default file count, the testbed rule, an optional variant pair whose two
// runs must write identical bytes, whether the critical-path analyzer is
// forced on, which tables and JSON documents it writes, and which flags it
// takes. Every point of every spec goes through the one loop in main():
// build the ExperimentSpec, time run_experiment on the host, hand the runs
// to the spec's tables.
//
//   collperf   Fig. 4 + Figs. 5/6. 512 ranks on 64 nodes write 4 files x
//              32 GiB with a 30 s compute delay; the last phase's residual
//              sync is excluded (paper §IV-B).
//   flashio    Fig. 7 + Fig. 8. Flash-IO checkpoint: 80 blocks/process x
//              24 variables x 32 KiB chunks plus an HDF5-ish header.
//   ior        Fig. 9 + Fig. 10. IOR, one 8 MiB block per rank in each of
//              8 segments; the last phase's sync is included (§IV-D).
//   model      Eq. 1/2 (§III-D): IOR's measured bandwidth against the model
//              fed the analytic Ts and the measured Tc; cache enabled, cb 4m.
//   engine     Host cost of the coll_perf sweep: wall time, the engine's
//              deterministic counters and events/sec (docs/performance.md).
//   two_level  Flat vs two-level exchange (docs/two_level.md) at a fixed
//              512 ranks (64 with --quick) across --rpn, cache disabled.
//   scale      coll_perf at 2048/4096/8192 ranks, 1 file, cb 64m, with
//              stripe-aligned vs misaligned file domains; --cases picks one
//              case, default disabled.
//
// Flags (a spec takes the subset its row lists; any other is an error):
//   --quick                64 ranks on 16 nodes with 1/8 of the data
//                          (scale: the 2048-rank point only)
//   --files=N              files per experiment
//   --combos=A_Bm,...      restrict to combos of the sweep, e.g. 64_4m
//   --cases=CASE,...       restrict the cache cases (disabled, enabled,
//                          theoretical)
//   --rpn=N,...            ranks-per-node sweep (default 2,8,16)
//   --no-breakdown         skip the breakdown, sync and tail tables
//   --trace=PATH           Chrome trace of one run: the first cache-enabled
//                          run when that case is selected, else the first
//   --report=PATH          JSON array: the run reports (two_level: of the
//                          two-level runs, combo keyed <combo>_rpn<N>, for
//                          bench_compare); engine and scale: their rows
//   --critical-path[=PATH] analyze every run's critical path: bottleneck
//                          table, the first run's attribution and, with
//                          PATH, a JSON array of the sections
//                          (docs/observability.md)
//   --summary=PATH         comparison document in the results/BENCH_*.json
//                          shape; --recorded=DATE stamps it
//   --faults=SPEC          arm a FaultPlan on every run, e.g.
//                          "pfs_write=2%/timed_out; outage=1@1s-2s; seed=7"
//   --check-concurrency    attach the concurrency checker to every run
//                          (docs/static_analysis.md)
//   --pipeline=on|off      double-buffered round loop (default on)
//   --sync-streams=N       in-flight flush streams per sync thread (4)
//   --coalesce=on|off      coalesce adjacent sync requests (default on)
//   --two-level=on|off     two-level exchange (default off)
//
// Exit status: 0; 1 when a run failed, a variant pair wrote different
// bytes, the concurrency checker found anything or an output file could
// not be written; 2 on a usage error, including a filter that selects no
// point.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "fault/fault_plan.h"
#include "obs/json.h"
#include "obs/report.h"
#include "workloads/experiment.h"
#include "workloads/model.h"
#include "workloads/workload.h"

namespace {

using namespace e10;
using namespace e10::bench;
using namespace e10::units;
using obs::Json;
using workloads::CacheCase;
using workloads::ExperimentResult;
using workloads::ExperimentSpec;

enum class Workload { coll_perf, flash_io, ior };

enum class Testbed {
  scaled,        // testbed_for(--quick)
  fixed_total,   // 512 ranks (64 with --quick) as nodes x --rpn
  scale_points,  // 2048/4096/8192 ranks at 8 per node, one write, cb 64m
};

enum class Tables { figure, model, engine, two_level, scale };

/// One run of a point's pair; both runs must write the same bytes.
struct Variant {
  const char* name;
  int aggregators;  // 0 = the point's
  bool two_level;
};

constexpr Variant kFlatVsTwoLevel[] = {{"flat", 0, false},
                                       {"two-level", 0, true}};
// With 64 aggregators every file domain is a multiple of the 4 MiB stripe,
// so the lock table stays quiet and the servers' ceiling shows; ranks x
// 64 MiB never splits into 48 stripe multiples, so neighbouring domains
// false-share boundary stripes every round.
constexpr Variant kAlignedVsMisaligned[] = {{"aligned", 64, false},
                                            {"misaligned", 48, false}};

struct SweepSpec {
  const char* name = "";
  const char* title = "";  // figure heading
  const char* label = "";  // benchmark name in table titles
  Workload workload = Workload::coll_perf;
  const char* base_path = "";
  bool include_last_phase = false;
  int files = 4;
  Testbed testbed = Testbed::scaled;
  /// Run only the first selected cache case, by default this one; nullptr
  /// runs every selected case.
  const char* one_case = nullptr;
  Offset only_cb = 0;  // 0 = every cb of the sweep
  const Variant* variants = nullptr;  // nullptr or a pair
  bool force_critical_path = false;
  Tables tables = Tables::figure;
  unsigned flags = 0;
};

constexpr unsigned kRunFlags = kCheckConcurrency | kKnobs | kReport;
constexpr unsigned kFigureFlags = kQuick | kFiles | kCombos | kCases |
                                  kNoBreakdown | kTrace | kCriticalPath |
                                  kFaults | kRunFlags;

constexpr SweepSpec kSpecs[] = {
    {.name = "collperf", .title = "Fig. 4 + Figs. 5/6", .label = "coll_perf",
     .base_path = "/pfs/coll_perf", .flags = kFigureFlags},
    {.name = "flashio", .title = "Fig. 7 + Fig. 8", .label = "flash_io",
     .workload = Workload::flash_io, .base_path = "/pfs/flash_io",
     .flags = kFigureFlags},
    {.name = "ior", .title = "Fig. 9 + Fig. 10", .label = "ior",
     .workload = Workload::ior, .base_path = "/pfs/ior",
     .include_last_phase = true, .flags = kFigureFlags},
    // Ts does not depend on cb, so one column.
    {.name = "model", .workload = Workload::ior, .base_path = "/pfs/model",
     .include_last_phase = true, .one_case = "enabled", .only_cb = 4 * MiB,
     .tables = Tables::model, .flags = kQuick | kFiles | kCombos},
    {.name = "engine", .base_path = "/pfs/coll_perf", .tables = Tables::engine,
     .flags = kQuick | kFiles | kCombos | kCases | kRunFlags},
    {.name = "two_level", .base_path = "/pfs/two_level", .files = 2,
     .testbed = Testbed::fixed_total, .one_case = "disabled",
     .variants = kFlatVsTwoLevel, .force_critical_path = true,
     .tables = Tables::two_level,
     .flags = kQuick | kFiles | kCombos | kRpn | kSummary |
              kCheckConcurrency | kReport},
    // The cache-disabled default sends every byte through the stripe lock
    // table to the data servers, which is what this sweep probes.
    {.name = "scale", .base_path = "/pfs/coll_perf", .files = 1,
     .testbed = Testbed::scale_points, .one_case = "disabled",
     .variants = kAlignedVsMisaligned, .force_critical_path = true,
     .tables = Tables::scale, .flags = kQuick | kCases | kRunFlags},
};

std::string usage_text(const SweepSpec* spec) {
  std::string usage = "usage: bench_sweep <spec> [flags]\n  specs:";
  for (const SweepSpec& s : kSpecs) usage += std::string(" ") + s.name;
  if (spec != nullptr) {
    usage += std::string("\n  ") + spec->name + " flags: " +
             flag_list(spec->flags);
  }
  return usage;
}

/// coll_perf's 64 MiB per rank: the paper's grids up to 512 ranks, then a
/// growing process grid with the same per-rank block.
workloads::CollPerfWorkload::Params collperf_params(int ranks) {
  switch (ranks) {
    case 2048: return {{8, 16, 16}, {4, 16, 131072}, 8};
    case 4096: return {{16, 16, 16}, {4, 16, 131072}, 8};
    case 8192: return {{16, 16, 32}, {4, 16, 131072}, 8};
    default: return workloads::collperf_paper_params(ranks);
  }
}

workloads::WorkloadFactory factory_for(Workload workload) {
  switch (workload) {
    case Workload::flash_io:
      return [](const workloads::TestbedParams&) {
        return std::make_unique<workloads::FlashIoWorkload>();
      };
    case Workload::ior:
      return [](const workloads::TestbedParams&) {
        return std::make_unique<workloads::IorWorkload>();
      };
    case Workload::coll_perf:
      break;
  }
  return [](const workloads::TestbedParams& testbed) {
    const int ranks =
        static_cast<int>(testbed.compute_nodes * testbed.ranks_per_node);
    return std::make_unique<workloads::CollPerfWorkload>(
        collperf_params(ranks));
  };
}

struct Run {
  ExperimentSpec spec;
  ExperimentResult result;
  double host_s = 0.0;
};

/// Every point of the spec in run order (case, testbed, combo), with the
/// filters applied and before any variant. A filter that selects nothing
/// is a usage error.
std::vector<ExperimentSpec> sweep_points(const SweepSpec& row,
                                         const Options& options,
                                         const std::string& usage) {
  std::vector<workloads::TestbedParams> testbeds;
  if (row.testbed == Testbed::scaled) {
    testbeds.push_back(testbed_for(options.quick));
  } else if (row.testbed == Testbed::fixed_total) {
    // A fixed total isolates the topology from the problem size.
    const std::size_t total = options.quick ? 64 : 512;
    for (const std::size_t rpn : options.rpn) {
      if (total % rpn != 0) {
        std::fprintf(stderr, "skipping rpn=%zu: does not divide %zu ranks\n",
                     rpn, total);
        continue;
      }
      testbeds.push_back(workloads::deep_er_testbed());
      testbeds.back().ranks_per_node = rpn;
      testbeds.back().compute_nodes = total / rpn;
    }
  } else {
    for (const std::size_t ranks : {2048u, 4096u, 8192u}) {
      if (options.quick && ranks > 2048) continue;
      testbeds.push_back(workloads::deep_er_testbed());
      testbeds.back().compute_nodes = ranks / 8;
      testbeds.back().ranks_per_node = 8;
    }
  }

  std::vector<std::pair<int, Offset>> combos;
  if (row.testbed == Testbed::scale_points) {
    combos.emplace_back(0, 64 * MiB);  // aggregators come from the variants
  } else {
    for (const auto& [aggregators, cb] : sweep_for(options.quick)) {
      if (row.only_cb == 0 || cb == row.only_cb) {
        combos.emplace_back(aggregators, cb);
      }
    }
  }
  fault::FaultPlan faults;
  if (!options.faults_spec.empty()) {
    faults = fault::FaultPlan::parse(options.faults_spec).value();
  }
  std::vector<ExperimentSpec> points;
  for (const CacheCase cache_case :
       {CacheCase::disabled, CacheCase::enabled, CacheCase::theoretical}) {
    if (!options.case_selected(cache_case)) continue;
    for (const workloads::TestbedParams& testbed : testbeds) {
      for (const auto& [aggregators, cb] : combos) {
        ExperimentSpec spec;
        spec.testbed = testbed;
        spec.aggregators = aggregators;
        spec.cb_buffer_size = cb;
        spec.cache_case = cache_case;
        spec.pipeline = options.pipeline;
        spec.sync_streams = options.sync_streams;
        spec.flush_coalesce = options.coalesce;
        spec.two_level = options.two_level;
        spec.faults = faults;
        spec.critical_path = options.critical_path || row.force_critical_path;
        spec.check_concurrency = options.check_concurrency;
        spec.workflow.base_path = row.base_path;
        spec.workflow.num_files = options.files;
        spec.workflow.compute_delay = row.testbed == Testbed::scale_points
                                          ? 0
                                          : compute_delay_for(options.quick);
        spec.workflow.include_last_phase = row.include_last_phase;
        points.push_back(spec);
      }
    }
    if (row.one_case != nullptr && !points.empty()) break;
  }
  for (const std::string& wanted : options.combos) {
    if (std::none_of(points.begin(), points.end(), [&](const auto& point) {
          return workloads::combo_label(point) == wanted;
        })) {
      usage_error("--combos: " + wanted + " is not in the sweep", usage);
    }
  }
  std::erase_if(points, [&](const ExperimentSpec& point) {
    return !options.combo_selected(workloads::combo_label(point));
  });
  if (points.empty()) usage_error("the filters select no sweep point", usage);

  // Trace exactly one run, preferring a cache-enabled one when that case is
  // selected (tracing every run would be huge).
  if (!options.trace_path.empty()) {
    const bool prefer_enabled = options.case_selected(CacheCase::enabled);
    for (ExperimentSpec& point : points) {
      if (point.cache_case == CacheCase::enabled || !prefer_enabled) {
        point.trace = true;
        break;
      }
    }
  }
  return points;
}

// ---- Figure tables --------------------------------------------------------

void print_bandwidth_table(const std::string& title,
                           const std::vector<ExperimentResult>& results) {
  // Rows: combos in sweep order; columns: the three cases.
  std::vector<std::string> combos;
  for (const ExperimentResult& r : results) {
    if (std::find(combos.begin(), combos.end(), r.combo) == combos.end()) {
      combos.push_back(r.combo);
    }
  }
  std::printf("\n### %s [GiB/s]\n", title.c_str());
  std::printf("%-10s %18s %18s %18s\n", "combo", "BW_cache_disable",
              "BW_cache_enable", "TBW_cache_enable");
  for (const std::string& combo : combos) {
    double bw[3] = {0, 0, 0};
    for (const ExperimentResult& r : results) {
      if (r.combo == combo) {
        bw[static_cast<int>(r.cache_case)] = r.bandwidth_gib;
      }
    }
    std::printf("%-10s %18.2f %18.2f %18.2f\n", combo.c_str(), bw[0], bw[1],
                bw[2]);
  }
  std::fflush(stdout);
}

void print_breakdown_table(const std::string& title, CacheCase cache_case,
                           const std::vector<ExperimentResult>& results) {
  static constexpr prof::Phase kShown[] = {
      prof::Phase::offset_exchange, prof::Phase::shuffle_intra,
      prof::Phase::shuffle_all2all, prof::Phase::shuffle_inter,
      prof::Phase::exchange,        prof::Phase::write_contig,
      prof::Phase::post_write,      prof::Phase::not_hidden_sync,
  };
  std::printf("\n### %s [s, max over ranks]\n", title.c_str());
  std::printf("%-10s", "combo");
  for (const prof::Phase phase : kShown) {
    std::printf(" %16s", prof::phase_name(phase));
  }
  std::printf("\n");
  for (const ExperimentResult& r : results) {
    if (r.cache_case != cache_case) continue;
    std::printf("%-10s", r.combo.c_str());
    for (const prof::Phase phase : kShown) {
      std::printf(" %16.3f", units::to_seconds(r.breakdown.at(phase)));
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

/// Sync-thread totals per combo (cache-enabled runs): requests, bytes,
/// staging dispatches, queue high-water mark, busy time, flush overlap,
/// coalesce ratio, drain bandwidth and stream overlap.
void print_sync_table(const std::string& title,
                      const std::vector<ExperimentResult>& results) {
  std::printf("\n### %s\n", title.c_str());
  std::printf("%-10s %10s %12s %10s %10s %10s %10s %10s %10s %10s\n", "combo",
              "requests", "synced_gib", "chunks", "queue_hwm", "busy_s",
              "overlap", "coalesce", "drain_gib", "stream_ovl");
  for (const ExperimentResult& r : results) {
    if (r.cache_case != CacheCase::enabled) continue;
    std::printf(
        "%-10s %10llu %12.2f %10llu %10llu %10.3f %10.3f %10.2f %10.2f "
        "%10.3f\n",
        r.combo.c_str(), static_cast<unsigned long long>(r.sync.requests),
        static_cast<double>(r.sync.bytes_synced) / static_cast<double>(GiB),
        static_cast<unsigned long long>(r.sync.staging_chunks),
        static_cast<unsigned long long>(r.sync.queue_depth_high_water),
        units::to_seconds(r.sync.busy_time), r.flush_overlap_ratio,
        r.sync_coalesce_ratio, r.sync_flush_bandwidth_gib,
        r.sync_stream_overlap_ratio);
  }
  std::fflush(stdout);
}

/// Per-phase p50/p95/p99/max over ranks from the run report's phase table:
/// the straggler signature the max-only breakdown hides.
void print_tail_table(const std::string& title, CacheCase cache_case,
                      const std::vector<ExperimentResult>& results) {
  static constexpr prof::Phase kShown[] = {
      prof::Phase::shuffle_intra,   prof::Phase::shuffle_all2all,
      prof::Phase::shuffle_inter,   prof::Phase::exchange,
      prof::Phase::write_contig,    prof::Phase::flush_wait,
      prof::Phase::not_hidden_sync,
  };
  std::printf("\n### %s [s, over ranks]\n", title.c_str());
  std::printf("%-10s %-18s %10s %10s %10s %10s\n", "combo", "phase", "p50",
              "p95", "p99", "max");
  for (const ExperimentResult& r : results) {
    if (r.cache_case != cache_case) continue;
    const Json* phases = r.report.find("phases");
    if (phases == nullptr) continue;
    for (const prof::Phase phase : kShown) {
      const Json* row = phases->find(prof::phase_name(phase));
      if (row == nullptr) continue;
      const auto stat = [&](const char* key) {
        const Json* value = row->find(key);
        return value == nullptr ? 0.0 : value->as_number();
      };
      std::printf("%-10s %-18s %10.3f %10.3f %10.3f %10.3f\n",
                  r.combo.c_str(), prof::phase_name(phase), stat("p50_s"),
                  stat("p95_s"), stat("p99_s"), stat("max_s"));
    }
  }
  std::fflush(stdout);
}

/// One row per analyzed run: bottleneck, attributed fraction and the
/// per-category split of the end-to-end critical path.
void print_critical_path_summary(
    const std::string& title, const std::vector<ExperimentResult>& results) {
  static constexpr const char* kCategories[] = {
      "shuffle", "write", "flush", "lock_wait", "nic_contention", "idle",
  };
  std::printf("\n### %s [fraction of end-to-end time]\n", title.c_str());
  std::printf("%-10s %-18s %-14s %10s", "combo", "case", "bottleneck",
              "attributed");
  for (const char* category : kCategories) std::printf(" %14s", category);
  std::printf("\n");
  for (const ExperimentResult& r : results) {
    if (r.critical_path.is_null()) continue;
    std::printf("%-10s %-18s %-14s %9.1f%%", r.combo.c_str(),
                workloads::to_string(r.cache_case), r.bottleneck.c_str(),
                r.attributed_fraction * 100.0);
    const Json* categories = r.critical_path.find("categories");
    for (const char* category : kCategories) {
      double fraction = 0.0;
      if (categories != nullptr) {
        if (const Json* entry = categories->find(category); entry != nullptr) {
          if (const Json* value = entry->find("fraction"); value != nullptr) {
            fraction = value->as_number();
          }
        }
      }
      std::printf(" %14.3f", fraction);
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

// ---- Row helpers ----------------------------------------------------------

double events_per_sec(const Run& run) {
  return run.host_s > 0
             ? static_cast<double>(run.result.engine_stats.events) / run.host_s
             : 0.0;
}

/// Host cost, engine counters and the virtual result of one run.
void set_host_cost(Json& row, const Run& run) {
  const sim::EngineStats& stats = run.result.engine_stats;
  const auto count = [](std::uint64_t n) {
    return Json::number(static_cast<double>(n));
  };
  row.set("host_s", Json::number(run.host_s));
  row.set("events", count(stats.events));
  row.set("switches", count(stats.switches));
  row.set("spawned", count(stats.spawned));
  row.set("max_ready_depth", count(stats.max_ready_depth));
  row.set("stack_reuses", count(stats.stack_reuses));
  row.set("events_per_sec", Json::number(events_per_sec(run)));
  row.set("virtual_io_time_s",
          Json::number(units::to_seconds(run.result.workflow.io_time)));
  row.set("bandwidth_gib", Json::number(run.result.bandwidth_gib));
  row.set("content_checksum", Json::str(run.result.content_checksum));
}

void set_findings(Json& row, const ExperimentResult& result) {
  row.set("analysis_races",
          Json::number(static_cast<double>(result.analysis_races)));
  row.set("analysis_cycles",
          Json::number(static_cast<double>(result.analysis_cycles)));
}

/// Shuffle seconds of the breakdown (max over ranks per phase): the flat
/// path reports it all under `exchange`, the two-level path under the
/// staged phases. Overcounts waiting hidden behind the write.
double shuffle_seconds(const ExperimentResult& result) {
  double total = 0.0;
  for (const prof::Phase phase :
       {prof::Phase::shuffle_intra, prof::Phase::shuffle_all2all,
        prof::Phase::shuffle_inter, prof::Phase::exchange}) {
    total += units::to_seconds(result.breakdown.at(phase));
  }
  return total;
}

/// Shuffle seconds on the causal critical path: the end-to-end time the
/// exchange actually costs.
double shuffle_critical_path_seconds(const ExperimentResult& result) {
  const Json* categories = result.critical_path.find("categories");
  const Json* shuffle =
      categories != nullptr ? categories->find("shuffle") : nullptr;
  const Json* seconds = shuffle != nullptr ? shuffle->find("s") : nullptr;
  return seconds != nullptr && seconds->is_numeric() ? seconds->as_number()
                                                     : 0.0;
}

// ---- The spec's tables and documents --------------------------------------

/// Prints what the spec's row names, point by point and at the end, and
/// collects its --report array.
class Output {
 public:
  Output(const SweepSpec& row, const Options& options)
      : row_(row), options_(options) {}

  void header(const std::vector<ExperimentSpec>& points) {
    const char* quick = options_.quick ? " [QUICK scale]" : "";
    switch (row_.tables) {
      case Tables::figure:
        std::printf("## %s: %s%s\n", row_.title, row_.label, quick);
        std::fflush(stdout);
        if (!options_.faults_spec.empty()) {
          std::printf("fault scenario: %s\n",
                      points.front().faults.summary().c_str());
          std::fflush(stdout);
        }
        break;
      case Tables::model:
        std::printf("## Eq. 1/2 model validation (IOR, cache enabled)%s\n",
                    quick);
        std::printf("%-10s %14s %14s %12s %14s\n", "combo", "measured_GiB/s",
                    "model_GiB/s", "rel_err", "model_Ts_s");
        break;
      case Tables::engine:
        std::printf("## engine hot path: coll_perf sweep%s\n", quick);
        std::printf("%-10s %-18s %9s %12s %12s %11s %10s %8s %12s\n",
                    "combo", "case", "host_s", "events", "switches",
                    "events/s", "ready_hwm", "spawned", "virt_io_s");
        std::fflush(stdout);
        break;
      case Tables::two_level:
        std::printf(
            "## two-level exchange vs flat shuffle (%d ranks, %d files%s)\n",
            options_.quick ? 64 : 512, options_.files,
            options_.quick ? ", QUICK scale" : "");
        std::printf("%-4s %-8s %13s %13s %9s %12s %12s %12s %12s %7s\n",
                    "rpn", "combo", "io_flat [s]", "io_2lvl [s]", "io_spdup",
                    "cp_flat [s]", "cp_2lvl [s]", "shfl_flat[s]",
                    "shfl_2lvl[s]", "chksum");
        std::fflush(stdout);
        break;
      case Tables::scale:
        std::printf(
            "## scale sweep: coll_perf collective write, %s, cb=64m%s\n",
            workloads::to_string(points.front().cache_case),
            options_.quick ? " [QUICK: 2048 only]" : "");
        std::printf("%7s %-11s %9s %13s %11s %9s %9s %10s %8s\n", "ranks",
                    "domains", "host_s", "events", "events/s", "ready_hwm",
                    "virt_io_s", "bw_gib", "checksum");
        std::fflush(stdout);
        break;
    }
  }

  /// The runs of one point: one, or the variant pair in order.
  void add(const std::vector<Run>& runs, bool match) {
    switch (row_.tables) {
      case Tables::figure: add_figure(runs.front()); break;
      case Tables::model: add_model(runs.front()); break;
      case Tables::engine: add_engine(runs.front()); break;
      case Tables::two_level: add_two_level(runs, match); break;
      case Tables::scale:
        for (std::size_t v = 0; v < runs.size(); ++v) {
          add_scale(runs[v], row_.variants[v]);
        }
        break;
    }
  }

  /// End-of-sweep tables and documents; false when a file failed to write.
  bool finish() {
    switch (row_.tables) {
      case Tables::figure: finish_figure(); break;
      case Tables::model: break;
      case Tables::engine:
        std::printf("\ntotal host time: %.3f s\n", total_host_s_);
        std::fflush(stdout);
        break;
      case Tables::two_level:
        std::printf(
            "\n%zu points; checksums %s; shuffle critical path faster at "
            "rpn>=8: %zu/%zu\n",
            points_, mismatches_ == 0 ? "all match" : "MISMATCH",
            faster_high_rpn_, high_rpn_points_);
        if (options_.check_concurrency) {
          std::printf("concurrency findings: %zu\n", findings_);
        }
        std::fflush(stdout);
        break;
      case Tables::scale:
        if (!last_path_table_.empty()) {
          std::printf("\n## critical-path attribution (largest point)\n%s\n",
                      last_path_table_.c_str());
        }
        break;
    }
    bool ok = write(options_.critical_path_path, "critical path",
                    critical_paths_);
    ok = write(options_.report_path, "report", reports_) && ok;
    if (row_.tables == Tables::two_level && !options_.summary_path.empty()) {
      ok = write(options_.summary_path, "summary", two_level_summary()) && ok;
    }
    return ok;
  }

  /// Counts the runs' concurrency-checker findings.
  void count_findings(const ExperimentResult& result) {
    findings_ += result.analysis_races + result.analysis_cycles;
  }
  std::size_t findings() const { return findings_; }
  void count_mismatch() { ++mismatches_; }
  std::size_t mismatches() const { return mismatches_; }

 private:
  static bool write(const std::string& path, const char* what,
                    const Json& doc) {
    if (path.empty()) return true;
    if (const Status s = obs::write_json_file(path, doc); !s.is_ok()) {
      std::fprintf(stderr, "failed to write %s to %s: %s\n", what,
                   path.c_str(), s.message().c_str());
      return false;
    }
    std::fprintf(stderr, "%s written to %s\n", what, path.c_str());
    return true;
  }

  void add_figure(const Run& run) {
    const ExperimentResult& r = run.result;
    std::fprintf(stderr, "  done %s %s: %.2f GiB/s\n",
                 workloads::to_string(r.cache_case), r.combo.c_str(),
                 r.bandwidth_gib);
    if (options_.critical_path) {
      std::fprintf(stderr, "  critical path: bottleneck=%s attributed=%.1f%%\n",
                   r.bottleneck.c_str(), r.attributed_fraction * 100.0);
      if (!r.critical_path.is_null()) {
        Json entry = Json::object();
        entry.set("combo", Json::str(r.combo));
        entry.set("cache_case", Json::str(workloads::to_string(r.cache_case)));
        entry.set("critical_path", r.critical_path);
        critical_paths_.push(std::move(entry));
      }
    }
    if (options_.check_concurrency) {
      std::fprintf(stderr,
                   "  concurrency: %zu races, %zu lock-order cycles "
                   "(%zu shared accesses checked)\n",
                   r.analysis_races, r.analysis_cycles,
                   r.analysis_shared_accesses);
    }
    reports_.push(r.report);
    results_.push_back(r);
  }

  void finish_figure() {
    const std::string label = row_.label;
    print_bandwidth_table(label + " perceived write bandwidth", results_);
    if (options_.breakdown) {
      print_breakdown_table(label + " breakdown, cache enabled",
                            CacheCase::enabled, results_);
      print_breakdown_table(label + " breakdown, cache disabled",
                            CacheCase::disabled, results_);
      print_sync_table(label + " background sync, cache enabled", results_);
      print_tail_table(label + " phase tails, cache enabled",
                       CacheCase::enabled, results_);
      print_tail_table(label + " phase tails, cache disabled",
                       CacheCase::disabled, results_);
    }
    if (options_.critical_path) {
      print_critical_path_summary(label + " critical path", results_);
      const ExperimentResult& first = results_.front();
      if (!first.critical_path_text.empty()) {
        std::printf("\n### %s critical path detail (%s %s)\n", row_.label,
                    workloads::to_string(first.cache_case),
                    first.combo.c_str());
        std::fputs(first.critical_path_text.c_str(), stdout);
        std::fflush(stdout);
      }
    }
    if (options_.check_concurrency) {
      std::size_t races = 0;
      std::size_t cycles = 0;
      for (const ExperimentResult& r : results_) {
        races += r.analysis_races;
        cycles += r.analysis_cycles;
      }
      std::printf(
          "\n### concurrency analysis: %zu races, %zu lock-order cycles "
          "across %zu runs\n",
          races, cycles, results_.size());
      std::fflush(stdout);
    }
  }

  void add_model(const Run& run) {
    // Ts from the analytic staging-pipeline estimate; Tc measured.
    const ExperimentResult& result = run.result;
    const int files = run.spec.workflow.num_files;
    const int aggregators = run.spec.aggregators;
    const Offset bytes_per_file = result.workflow.phases[0].bytes;
    const Time ts = workloads::estimate_sync_time(
        bytes_per_file / aggregators, static_cast<std::size_t>(aggregators),
        run.spec.testbed);
    std::vector<workloads::PhaseModel> phases;
    for (int k = 0; k < files; ++k) {
      workloads::PhaseModel phase;
      phase.bytes = bytes_per_file;
      phase.write =
          result.workflow.phases[static_cast<std::size_t>(k)].write_time;
      phase.sync = ts;
      phase.compute = k == files - 1 ? 0 : run.spec.workflow.compute_delay;
      phases.push_back(phase);
    }
    const double model_bw = workloads::eq2_bandwidth(phases);
    const double measured = result.bandwidth_gib;
    const double rel_err =
        measured > 0 ? (model_bw - measured) / measured : 0.0;
    std::printf("%-10s %14.2f %14.2f %11.1f%% %14.1f\n",
                result.combo.c_str(), measured, model_bw, rel_err * 100.0,
                units::to_seconds(ts));
    std::fflush(stdout);
  }

  void add_engine(const Run& run) {
    const ExperimentResult& result = run.result;
    const sim::EngineStats& stats = result.engine_stats;
    total_host_s_ += run.host_s;
    std::printf(
        "%-10s %-18s %9.3f %12llu %12llu %11.0f %10llu %8llu %12.3f\n",
        result.combo.c_str(), workloads::to_string(result.cache_case),
        run.host_s, static_cast<unsigned long long>(stats.events),
        static_cast<unsigned long long>(stats.switches), events_per_sec(run),
        static_cast<unsigned long long>(stats.max_ready_depth),
        static_cast<unsigned long long>(stats.spawned),
        units::to_seconds(result.workflow.io_time));
    std::fflush(stdout);
    Json row = Json::object();
    row.set("combo", Json::str(result.combo));
    row.set("cache_case", Json::str(workloads::to_string(result.cache_case)));
    set_host_cost(row, run);
    if (options_.check_concurrency) set_findings(row, result);
    reports_.push(std::move(row));
  }

  void add_two_level(const std::vector<Run>& runs, bool match) {
    const ExperimentResult& flat = runs[0].result;
    const ExperimentResult& two = runs[1].result;
    const std::size_t rpn = runs[0].spec.testbed.ranks_per_node;
    const std::string& combo = flat.combo;
    const double io_flat = units::to_seconds(flat.workflow.io_time);
    const double io_two = units::to_seconds(two.workflow.io_time);
    const double speedup = io_two > 0 ? io_flat / io_two : 0.0;
    const double cp_flat = shuffle_critical_path_seconds(flat);
    const double cp_two = shuffle_critical_path_seconds(two);
    ++points_;
    // The acceptance measure: shuffle time on the causal critical path,
    // where the two-level exchange must win once nodes are dense enough.
    if (rpn >= 8) {
      ++high_rpn_points_;
      if (cp_two < cp_flat) ++faster_high_rpn_;
    }
    std::printf(
        "%-4zu %-8s %13.3f %13.3f %9.3f %12.3f %12.3f %12.3f %12.3f %7s\n",
        rpn, combo.c_str(), io_flat, io_two, speedup, cp_flat, cp_two,
        shuffle_seconds(flat), shuffle_seconds(two),
        match ? "match" : "MISMATCH");
    std::fflush(stdout);

    Json entry = Json::object();
    entry.set("combo", Json::str(combo));
    entry.set("ranks_per_node",
              Json::integer(static_cast<std::int64_t>(rpn)));
    entry.set("io_time_s_flat", Json::number(io_flat));
    entry.set("io_time_s_two_level", Json::number(io_two));
    entry.set("io_speedup", Json::number(speedup));
    entry.set("shuffle_critical_path_s_flat", Json::number(cp_flat));
    entry.set("shuffle_critical_path_s_two_level", Json::number(cp_two));
    entry.set("shuffle_s_flat", Json::number(shuffle_seconds(flat)));
    entry.set("shuffle_s_two_level", Json::number(shuffle_seconds(two)));
    entry.set("two_level_rounds",
              Json::number(report_counter(two, obs::names::kTwoLevelRounds)));
    entry.set("intra_bytes", Json::number(report_counter(
                                 two, obs::names::kTwoLevelIntraBytes)));
    entry.set("inter_bytes", Json::number(report_counter(
                                 two, obs::names::kTwoLevelInterBytes)));
    entry.set("content_checksum_match", Json::boolean(match));
    entries_.push(std::move(entry));
    // Only the two-level runs go to --report: bench_compare keys points by
    // combo/cache_case and would pair the wrong rows if both modes shared
    // a file. The rpn suffix keeps one combo's topologies apart too.
    Json report = two.report;
    if (const Json* config = report.find("config")) {
      Json patched = *config;
      patched.set("combo",
                  Json::str(combo + "_rpn" + std::to_string(rpn)));
      report.set("config", std::move(patched));
    }
    reports_.push(std::move(report));
  }

  Json two_level_summary() const {
    Json doc = Json::object();
    doc.set(
        "description",
        Json::str(
            "Two-level (node-aware domains + intra-node gather + "
            "leaders-only inter-node exchange) vs flat ext2ph shuffle, "
            "coll_perf at fixed total ranks across ranks_per_node, cache "
            "disabled. shuffle_critical_path_s is the shuffle category of "
            "the causal critical-path attribution (the acceptance measure); "
            "shuffle_s sums the max-over-ranks "
            "shuffle_intra/shuffle_all2all/shuffle_inter/exchange phases; "
            "checksums must match per point. See docs/two_level.md."));
    if (!options_.recorded.empty()) {
      doc.set("recorded", Json::str(options_.recorded));
    }
    // The stamp of the committed results/BENCH_two_level.json, kept so the
    // document regenerates byte for byte.
    doc.set("command", Json::str("bench_two_level --rpn=... [--quick] "
                                 "[--files=N] [--summary=...]"));
    const auto count = [](std::size_t n) {
      return Json::integer(static_cast<std::int64_t>(n));
    };
    Json summary = Json::object();
    summary.set("total_ranks", count(options_.quick ? 64 : 512));
    summary.set("sweep_points", count(points_));
    summary.set("high_rpn_points", count(high_rpn_points_));
    summary.set("shuffle_faster_high_rpn", count(faster_high_rpn_));
    summary.set("all_checksums_match", Json::boolean(mismatches_ == 0));
    doc.set("summary", std::move(summary));
    doc.set("entries", entries_);
    return doc;
  }

  void add_scale(const Run& run, const Variant& variant) {
    const ExperimentResult& result = run.result;
    const int ranks = static_cast<int>(run.spec.testbed.compute_nodes *
                                       run.spec.testbed.ranks_per_node);
    const double virt_io_s = units::to_seconds(result.workflow.io_time);
    std::printf("%7d %-11s %9.2f %13llu %11.0f %9llu %9.3f %10.3f %8s\n",
                ranks, variant.name, run.host_s,
                static_cast<unsigned long long>(result.engine_stats.events),
                events_per_sec(run),
                static_cast<unsigned long long>(
                    result.engine_stats.max_ready_depth),
                virt_io_s, result.bandwidth_gib,
                result.content_checksum.c_str());

    // Per-server device attribution, straight from the exported counters.
    Json servers = Json::array();
    std::printf("        %-8s %14s %10s %12s\n", "server", "bytes_written",
                "busy_s", "bw_gib/s");
    for (int s = 0; s < static_cast<int>(run.spec.testbed.pfs.data_servers);
         ++s) {
      const std::string prefix =
          "pfs.server." + std::to_string(s) + ".device.";
      const double busy_s = report_counter(result, prefix + "busy_ns") * 1e-9;
      const double bytes = report_counter(result, prefix + "bytes_written");
      const double bw_gib =
          busy_s > 0 ? bytes / static_cast<double>(GiB) / busy_s : 0.0;
      std::printf("        %-8d %14.0f %10.3f %12.3f\n", s, bytes, busy_s,
                  bw_gib);
      Json server = Json::object();
      server.set("server", Json::number(s));
      server.set("bytes_written", Json::number(bytes));
      server.set("busy_s", Json::number(busy_s));
      server.set("bandwidth_gib", Json::number(bw_gib));
      servers.push(std::move(server));
    }

    const double lock_waits = report_counter(result, obs::names::kLockWaits);
    const double lock_wait_s =
        report_counter(result, obs::names::kLockWaitNs) * 1e-9;
    const double lock_handoffs =
        report_counter(result, obs::names::kLockHandoffs);
    std::printf(
        "        locks: %.0f waits, %.3f s total wait, %.0f handoffs\n",
        lock_waits, lock_wait_s, lock_handoffs);
    std::printf("        critical path: %s (%.0f%% attributed)\n",
                result.bottleneck.c_str(),
                100.0 * result.attributed_fraction);
    if (options_.check_concurrency) {
      std::printf("        concurrency: %zu races, %zu cycles\n",
                  result.analysis_races, result.analysis_cycles);
    }
    std::fflush(stdout);
    last_path_table_ = result.critical_path_text;

    Json row = Json::object();
    row.set("ranks", Json::number(ranks));
    row.set("domains", Json::str(variant.name));
    row.set("aggregators", Json::number(variant.aggregators));
    row.set("cache_case", Json::str(workloads::to_string(result.cache_case)));
    set_host_cost(row, run);
    row.set("servers", std::move(servers));
    Json locks = Json::object();
    locks.set("waits", Json::number(lock_waits));
    locks.set("wait_s", Json::number(lock_wait_s));
    locks.set("handoffs", Json::number(lock_handoffs));
    row.set("locks", std::move(locks));
    row.set("bottleneck", Json::str(result.bottleneck));
    row.set("attributed_fraction", Json::number(result.attributed_fraction));
    if (options_.check_concurrency) set_findings(row, result);
    reports_.push(std::move(row));
  }

  const SweepSpec& row_;
  const Options& options_;
  Json reports_ = Json::array();         // --report
  Json critical_paths_ = Json::array();  // --critical-path=PATH
  Json entries_ = Json::array();         // --summary entries
  std::vector<ExperimentResult> results_;  // figure tables
  std::string last_path_table_;            // scale: largest point's table
  double total_host_s_ = 0.0;
  std::size_t findings_ = 0;
  std::size_t mismatches_ = 0;
  std::size_t points_ = 0;
  std::size_t high_rpn_points_ = 0;
  std::size_t faster_high_rpn_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const SweepSpec* row = nullptr;
  for (const SweepSpec& spec : kSpecs) {
    if (argc > 1 && std::string(argv[1]) == spec.name) row = &spec;
  }
  if (row == nullptr) {
    usage_error(argc > 1 ? std::string("unknown spec: ") + argv[1]
                         : std::string("missing spec"),
                usage_text(nullptr));
  }
  const std::string usage = usage_text(row);
  Options options;
  options.files = row->files;
  if (row->one_case != nullptr) options.cases = {row->one_case};
  parse_options(argc, argv, 2, row->flags, usage, options);

  const std::vector<ExperimentSpec> points =
      sweep_points(*row, options, usage);
  const workloads::WorkloadFactory factory = factory_for(row->workload);
  Output output(*row, options);
  output.header(points);
  for (const ExperimentSpec& point : points) {
    std::vector<Run> runs;
    for (std::size_t v = 0; v < (row->variants != nullptr ? 2u : 1u); ++v) {
      Run run{point, {}, 0.0};
      if (row->variants != nullptr) {
        const Variant& variant = row->variants[v];
        if (variant.aggregators > 0) run.spec.aggregators = variant.aggregators;
        run.spec.two_level = run.spec.two_level || variant.two_level;
      }
      const auto t0 = std::chrono::steady_clock::now();
      try {
        run.result = workloads::run_experiment(run.spec, factory);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "FAIL: %s point %s case %s: %s\n", row->name,
                     workloads::combo_label(run.spec).c_str(),
                     workloads::to_string(run.spec.cache_case), e.what());
        return 1;
      }
      run.host_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
      if (run.spec.trace) {
        std::ofstream out(options.trace_path);
        out << run.result.trace_json;
        std::fprintf(stderr, out ? "  trace for %s written to %s\n"
                                 : "  failed to write trace for %s to %s\n",
                     run.result.combo.c_str(), options.trace_path.c_str());
      }
      if (run.result.trace_open_spans > 0) {
        std::fprintf(stderr, "  WARNING: %zu trace span(s) left open\n",
                     run.result.trace_open_spans);
      }
      output.count_findings(run.result);
      runs.push_back(std::move(run));
    }
    const std::string& checksum = runs.front().result.content_checksum;
    const bool match = runs.size() == 1 ||
                       (!checksum.empty() &&
                        checksum == runs.back().result.content_checksum);
    if (!match) output.count_mismatch();
    output.add(runs, match);
  }

  int status = output.finish() ? 0 : 1;
  if (output.mismatches() > 0) {
    std::fprintf(stderr, "FAIL: %s and %s runs wrote different bytes at %zu "
                 "point(s)\n", row->variants[0].name, row->variants[1].name,
                 output.mismatches());
    status = 1;
  }
  if (options.check_concurrency && output.findings() > 0) {
    std::fprintf(stderr, "FAIL: %zu concurrency finding(s)\n",
                 output.findings());
    status = 1;
  }
  return status;
}

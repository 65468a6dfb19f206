#include "fuzz/runner.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "adio/adio_file.h"
#include "analysis/checker.h"
#include "analysis/lock_order.h"
#include "cache/cache_file.h"
#include "cache/journal.h"
#include "common/rng.h"
#include "fault/fault_plan.h"
#include "mpi/topology.h"
#include "mpiio/file.h"
#include "workloads/testbed.h"

namespace e10::fuzz {

using namespace e10::units;

namespace {

constexpr const char* kGlobalPath = "/pfs/fuzz";
constexpr const char* kCacheDir = "/scratch";
/// Sampling stride of the byte comparisons: it names the differing bytes
/// of a file whose content hash is wrong, and it is the whole check of the
/// no-garbage and recovery oracles, where a partial file has no single
/// expected hash.
constexpr Offset kCompareStride = 37;
constexpr int kMaxDetails = 5;  // violations reported per oracle

workloads::TestbedParams testbed_for(const Scenario& s) {
  workloads::TestbedParams params = workloads::small_testbed();
  params.compute_nodes = s.nodes;
  params.ranks_per_node = s.ranks_per_node;
  params.seed = Rng::derive(s.seed, "fuzz.testbed");
  return params;
}

mpi::Info info_for(const Scenario& s) {
  mpi::Info info;
  info.set("romio_cb_write", "enable");
  info.set("cb_buffer_size", std::to_string(s.cb_buffer));
  if (s.aggregators > 0) info.set("cb_nodes", std::to_string(s.aggregators));
  info.set("e10_pipeline_flag", s.pipeline ? "enable" : "disable");
  info.set("e10_two_level_flag", s.two_level ? "enable" : "disable");
  info.set("e10_cache", s.cache);
  if (s.cache != "disable") {
    info.set("e10_cache_path", kCacheDir);
    info.set("e10_cache_flush_flag", s.flush);
    info.set("e10_sync_streams", std::to_string(s.sync_streams));
    info.set("e10_flush_coalesce_flag", s.coalesce ? "enable" : "disable");
    info.set("e10_cache_journal", s.journal_hint ? "enable" : "disable");
  }
  return info;
}

/// The cache file adio::open_coll gives `rank` of the fuzzed file.
std::string cache_path_for_rank(int rank) {
  return adio::cache_file_name(kCacheDir, kGlobalPath, rank);
}

/// Reference model: every piece applied to a plain ByteStore.
ByteStore build_reference(const Scenario& s,
                          const std::vector<PieceSpec>& pieces) {
  ByteStore reference;
  for (const PieceSpec& p : pieces) {
    reference.write(p.offset,
                    DataView::synthetic(s.data_seed(), p.offset, p.length));
  }
  return reference;
}

/// Per-(call, rank) IoPiece lists for the system under test. The self-test
/// bug drops the first piece here — and only here; the reference keeps it.
std::vector<std::vector<std::vector<mpi::IoPiece>>> build_io(
    const Scenario& s, const std::vector<PieceSpec>& pieces) {
  std::vector<std::vector<std::vector<mpi::IoPiece>>> io(
      static_cast<std::size_t>(s.calls));
  for (auto& per_call : io) {
    per_call.resize(static_cast<std::size_t>(s.ranks()));
  }
  bool dropped = false;
  for (const PieceSpec& p : pieces) {
    if (s.bug == BugKind::drop_extent && !dropped) {
      dropped = true;  // pieces are sorted: this is the (call, rank, offset) min
      continue;
    }
    mpi::IoPiece piece;
    piece.file = Extent{p.offset, p.length};
    piece.data = DataView::synthetic(s.data_seed(), p.offset, p.length);
    io[static_cast<std::size_t>(p.call)][static_cast<std::size_t>(p.rank)]
        .push_back(std::move(piece));
  }
  return io;
}

struct ByteDiff {
  Offset pos = 0;
  int actual = 0;
  int expected = 0;
};

std::string diff_text(const ByteDiff& d) {
  std::ostringstream os;
  os << "pos " << d.pos << ": file=" << d.actual << " ref=" << d.expected;
  return os.str();
}

/// One executed simulation, with everything the oracles need still alive.
struct Execution {
  std::unique_ptr<workloads::Platform> platform;
  std::unique_ptr<analysis::ConcurrencyChecker> checker;
  RunReport report;
  std::vector<OracleViolation> violations;

  void violate(const std::string& oracle, const std::string& detail) {
    violations.push_back(OracleViolation{oracle, detail});
  }
};

/// Builds the platform, runs the workload (with the crash point armed when
/// `crash_at` > 0), and runs the recovery pass after a fired crash. Fills
/// the report; byte oracles are applied by the caller.
Execution execute(const Scenario& s, Time crash_at, bool check_concurrency) {
  Execution ex;
  ex.platform = std::make_unique<workloads::Platform>(testbed_for(s));
  workloads::Platform& p = *ex.platform;
  if (check_concurrency) {
    ex.checker = std::make_unique<analysis::ConcurrencyChecker>(p.engine);
  }
  if (!s.fault_spec.empty()) {
    auto plan = fault::FaultPlan::parse(s.fault_spec);
    if (!plan.is_ok()) {
      ex.report.engine_error = true;
      ex.report.engine_error_text =
          "fault spec: " + plan.status().message();
      return ex;
    }
    p.faults.arm(std::move(plan).value());
  }

  const auto pieces = s.concrete_pieces();
  const auto io = build_io(s, pieces);
  const mpi::Info info = info_for(s);
  std::vector<Status> rank_status(static_cast<std::size_t>(s.ranks()),
                                  Status::ok());

  p.launch([&, io](mpi::Comm comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    auto note = [&](const Status& st) {
      if (rank_status[r].is_ok() && !st.is_ok()) rank_status[r] = st;
    };
    auto file = mpiio::File::open(p.ctx, comm, kGlobalPath,
                                  adio::amode::create | adio::amode::rdwr,
                                  info);
    if (!file.is_ok()) {
      note(file.status());
      return;  // open is collective: every rank fails together
    }
    // Keep the collective call sequence aligned across ranks even after an
    // error — a failed collective reports on every rank, and bailing out on
    // one rank only would wedge the others.
    for (int c = 0; c < s.calls; ++c) {
      note(adio::write_strided_coll(*file.value().raw(),
                                    io[static_cast<std::size_t>(c)][r]));
    }
    note(file.value().close());
  });

  if (crash_at > 0) {
    ex.report.crash_at = crash_at;
    p.engine.stop_at(crash_at);
  }
  try {
    p.engine.run();
  } catch (const std::exception& e) {
    ex.report.engine_error = true;
    ex.report.engine_error_text = e.what();
  }
  ex.report.stopped = p.engine.stopped();

  if (ex.report.stopped) {
    // Restart-and-recover pass: the job was killed; the fault scenario died
    // with it (a restarted job runs in a healthy environment), and a fresh
    // process replays every rank's surviving journal.
    p.faults.arm(fault::FaultPlan{});
    const mpi::Topology topo(s.nodes, s.ranks_per_node);
    p.engine.spawn("fuzz-recovery", [&] {
      pfs::OpenOptions opts;
      opts.mode = pfs::OpenMode::read_write;
      const auto handle = p.pfs.open(kGlobalPath, 0, opts);
      if (!handle.is_ok()) return;  // crashed before create: nothing durable
      for (int r = 0; r < s.ranks(); ++r) {
        lfs::LocalFs& node_fs = p.lfs.at(topo.node_of(r));
        const std::string cpath = cache_path_for_rank(r);
        if (!node_fs.exists(cache::CacheFile::journal_path(cpath))) continue;
        const auto rec = cache::CacheFile::recover(node_fs, p.pfs,
                                                   handle.value(), cpath);
        if (rec.is_ok()) {
          ex.report.recovered_extents += rec.value().replayed_extents;
          ex.report.recovered_bytes += rec.value().replayed_bytes;
        } else {
          ex.violate("recovery", "rank " + std::to_string(r) + ": " +
                                     rec.status().to_string());
        }
      }
      (void)p.pfs.close(handle.value());
    });
    try {
      p.engine.run();
    } catch (const std::exception& e) {
      ex.report.engine_error = true;
      ex.report.engine_error_text = std::string("recovery: ") + e.what();
    }
  }

  ex.report.end_time = p.engine.now();
  ex.report.rank_errors.reserve(rank_status.size());
  bool all_ok = !ex.report.engine_error && !ex.report.stopped;
  for (const Status& st : rank_status) {
    ex.report.rank_errors.push_back(static_cast<int>(st.code()));
    if (!st.is_ok()) all_ok = false;
  }
  ex.report.all_ok = all_ok;
  const ByteStore* file = p.pfs.peek(kGlobalPath);
  ex.report.checksum = file != nullptr ? file->content_hash() : 0;
  ex.report.extent_end = file != nullptr ? file->extent_end() : 0;
  if (ex.checker != nullptr) {
    const auto summary = ex.checker->summary();
    ex.report.races = summary.races.size();
    ex.report.cycles = summary.cycles.size();
    ex.report.shared_accesses = summary.shared_accesses;
  }
  ex.report.faults_injected = p.faults.stats().injected;
  ex.report.fault_crashes = p.faults.stats().crashes;
  ex.report.engine_stats = p.engine.stats();
  return ex;
}

}  // namespace

std::string RunReport::to_text() const {
  std::ostringstream os;
  os << "engine_error=" << engine_error;
  if (engine_error) os << " (" << engine_error_text << ")";
  os << " stopped=" << stopped << " crash_at=" << crash_at
     << " end_time=" << end_time << " all_ok=" << all_ok << " rank_errors=[";
  for (std::size_t i = 0; i < rank_errors.size(); ++i) {
    os << (i > 0 ? "," : "") << rank_errors[i];
  }
  os << "] checksum=" << checksum << " extent_end=" << extent_end
     << " races=" << races << " cycles=" << cycles
     << " shared_accesses=" << shared_accesses
     << " faults_injected=" << faults_injected
     << " fault_crashes=" << fault_crashes
     << " recovered_extents=" << recovered_extents
     << " recovered_bytes=" << recovered_bytes
     << " journal_extents_checked=" << journal_extents_checked
     << " engine_events=" << engine_stats.events
     << " engine_switches=" << engine_stats.switches
     << " engine_spawned=" << engine_stats.spawned
     << " engine_ready_hwm=" << engine_stats.max_ready_depth;
  return os.str();
}

std::string RunResult::violations_text() const {
  std::ostringstream os;
  for (const OracleViolation& v : violations) {
    os << v.oracle << ": " << v.detail << "\n";
  }
  return os.str();
}

Time probe_end_time(const Scenario& scenario) {
  Scenario probe = scenario;
  probe.crash_frac = 0.0;
  probe.crash_at.reset();
  Execution ex = execute(probe, /*crash_at=*/0, /*check_concurrency=*/false);
  return ex.report.end_time;
}

RunResult run_scenario(const Scenario& scenario, const RunOptions& options) {
  // Resolve the crash fraction against the clean-run end time so "kill at
  // 40% of the run" is meaningful regardless of workload size.
  Time crash_at = 0;
  if (scenario.crash_at.has_value()) {
    crash_at = *scenario.crash_at;
  } else if (scenario.crash_frac > 0.0) {
    crash_at = std::max<Time>(
        1, static_cast<Time>(scenario.crash_frac *
                             static_cast<double>(probe_end_time(scenario))));
  }

  Execution ex = execute(scenario, crash_at, options.check_concurrency);
  RunResult result;

  const auto pieces = scenario.concrete_pieces();
  const ByteStore reference = build_reference(scenario, pieces);
  workloads::Platform& p = *ex.platform;
  const ByteStore* file = p.pfs.peek(kGlobalPath);

  // ---- Oracle: the simulation itself must terminate cleanly -------------
  if (ex.report.engine_error) {
    ex.violate("engine", ex.report.engine_error_text);
  }

  // ---- Oracle 3: zero concurrency findings ------------------------------
  if (ex.checker != nullptr) {
    const auto summary = ex.checker->summary();
    for (std::size_t i = 0; i < summary.races.size() &&
                            i < static_cast<std::size_t>(kMaxDetails); ++i) {
      ex.violate("concurrency", "race on " + summary.races[i].var + " at " +
                                    summary.races[i].site);
    }
    for (const auto& cycle : summary.cycles) {
      std::string locks;
      for (const std::string& l : cycle.locks) {
        locks += (locks.empty() ? "" : " -> ") + l;
      }
      ex.violate("concurrency", "lock-order cycle: " + locks);
    }
    // Declared-vs-dynamic cross-check: the acquisition order this run
    // actually exercised must not reverse the statically declared order
    // (analysis/lock_order.h) — catches inversions even when no cycle
    // closed on this schedule.
    for (const std::string& violation :
         analysis::check_declared_order(ex.checker->order_edges())) {
      ex.violate("concurrency", violation);
    }
  }

  // ---- Oracles 1 and 4: byte-level checks vs the reference model --------
  auto check_extent = [&](const char* oracle, Offset begin, Offset length,
                          int& budget) {
    auto check_pos = [&](Offset pos) {
      if (budget <= 0) return;
      const int actual =
          file != nullptr ? static_cast<int>(file->byte_at(pos)) : 0;
      const int expected = static_cast<int>(reference.byte_at(pos));
      if (actual != expected) {
        --budget;
        ex.violate(oracle, diff_text(ByteDiff{pos, actual, expected}));
      }
    };
    check_pos(begin);
    if (length > 1) check_pos(begin + length - 1);
    for (Offset pos = begin + kCompareStride; pos + 1 < begin + length;
         pos += kCompareStride) {
      check_pos(pos);
    }
  };

  if (!ex.report.engine_error) {
    if (ex.report.all_ok) {
      // No rank surfaced an error: the file must be byte-exact, which its
      // content hash decides. The sampled comparison only names the bytes
      // that differ.
      if (file == nullptr) {
        ex.violate("byte_equality", "global file missing");
      } else if (ex.report.checksum != reference.content_hash()) {
        const std::size_t before = ex.violations.size();
        if (file->extent_end() != reference.extent_end()) {
          ex.violate("byte_equality",
                     "extent_end " + std::to_string(file->extent_end()) +
                         " != ref " + std::to_string(reference.extent_end()));
        }
        int budget = kMaxDetails;
        for (const PieceSpec& piece : pieces) {
          check_extent("byte_equality", piece.offset, piece.length, budget);
        }
        if (ex.violations.size() == before) {
          ex.violate("byte_equality",
                     "content hash differs from the reference at no "
                     "sampled byte");
        }
      }
    } else if (!ex.report.stopped) {
      // Errors were surfaced: abandoned extents may be missing, but
      // nothing may be *wrong* — every written byte matches the reference
      // or is still zero (no garbage, no misplaced data).
      int budget = kMaxDetails;
      const Offset end = file != nullptr ? file->extent_end() : 0;
      for (Offset pos = 0; pos < end && budget > 0; pos += kCompareStride) {
        const int actual = static_cast<int>(file->byte_at(pos));
        if (actual == 0) continue;  // unwritten (or legitimately zero)
        const int expected = static_cast<int>(reference.byte_at(pos));
        if (actual != expected) {
          --budget;
          ex.violate("no_garbage", diff_text(ByteDiff{pos, actual, expected}));
        }
      }
    }

    if (ex.report.stopped) {
      // Oracle 4: after the kill + replay, every extent the surviving
      // journals describe must be byte-identical in the global file. The
      // extent map is rebuilt with the live path's shadowing rules, so a
      // re-written range is checked against its freshest copy only.
      const mpi::Topology topo(scenario.nodes, scenario.ranks_per_node);
      int budget = kMaxDetails;
      for (int r = 0; r < scenario.ranks(); ++r) {
        const lfs::LocalFs& node_fs = p.lfs.at(topo.node_of(r));
        const ByteStore* journal = node_fs.peek(
            cache::CacheFile::journal_path(cache_path_for_rank(r)));
        if (journal == nullptr) continue;
        const auto records = cache::scan_write_records(
            journal->read(0, journal->extent_end()));
        cache::ExtentMap map;
        for (const cache::WriteRecord& rec : records) {
          cache::apply_extent(map, Extent{rec.global_offset, rec.length},
                              rec.cache_offset, rec.seq);
        }
        for (const auto& [global_offset, extent] : map) {
          ++ex.report.journal_extents_checked;
          check_extent("recovery", global_offset, extent.length, budget);
        }
      }
      // And the no-garbage invariant still holds for everything else.
      int garbage_budget = kMaxDetails;
      const Offset end = file != nullptr ? file->extent_end() : 0;
      for (Offset pos = 0; pos < end && garbage_budget > 0;
           pos += kCompareStride) {
        const int actual = static_cast<int>(file->byte_at(pos));
        if (actual == 0) continue;
        const int expected = static_cast<int>(reference.byte_at(pos));
        if (actual != expected) {
          --garbage_budget;
          ex.violate("no_garbage", diff_text(ByteDiff{pos, actual, expected}));
        }
      }
    }
  }

  // ---- Oracle 2: checksum equality across hint configurations -----------
  // Only meaningful for clean runs: faults and crashes make content differ
  // across configs legitimately (different extents get abandoned).
  if (options.cross_check_hints && ex.report.all_ok &&
      scenario.fault_spec.empty() && !scenario.wants_crash()) {
    Scenario baseline = scenario;
    baseline.cache = scenario.cache == "disable" ? "enable" : "disable";
    baseline.pipeline = true;
    baseline.sync_streams = 4;
    baseline.coalesce = true;
    // Flip the exchange topology too: the two-level gather must produce
    // byte-identical content to the flat shuffle.
    baseline.two_level = !scenario.two_level;
    Execution base =
        execute(baseline, /*crash_at=*/0, /*check_concurrency=*/false);
    if (base.report.engine_error) {
      ex.violate("cross_hints",
                 "baseline run failed: " + base.report.engine_error_text);
    } else if (!base.report.all_ok) {
      ex.violate("cross_hints", "baseline run surfaced errors");
    } else if (base.report.checksum != ex.report.checksum) {
      std::ostringstream os;
      os << "checksum " << ex.report.checksum << " (cache=" << scenario.cache
         << ", two_level=" << (scenario.two_level ? "on" : "off") << ") != "
         << base.report.checksum << " (cache=" << baseline.cache
         << ", two_level=" << (baseline.two_level ? "on" : "off") << ")";
      ex.violate("cross_hints", os.str());
    }
  }

  result.report = std::move(ex.report);
  result.violations = std::move(ex.violations);
  return result;
}

}  // namespace e10::fuzz

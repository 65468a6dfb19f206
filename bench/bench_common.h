// Option parser, scale rules and report reader shared by bench_sweep and
// bench_ablations.
//
// Each driver passes parse_options the set of flags it honors. An unknown
// flag, a flag outside that set or a malformed value prints the driver's
// usage text and exits 2 before anything runs.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "workloads/experiment.h"

namespace e10::bench {

/// One bit per flag (or flag family); a driver accepts a union of them.
enum Flag : unsigned {
  kQuick = 1u << 0,             // --quick
  kFiles = 1u << 1,             // --files=N
  kCombos = 1u << 2,            // --combos=A_Bm,...
  kCases = 1u << 3,             // --cases=CASE,...
  kRpn = 1u << 4,               // --rpn=N,...
  kNoBreakdown = 1u << 5,       // --no-breakdown
  kTrace = 1u << 6,             // --trace=PATH
  kReport = 1u << 7,            // --report=PATH
  kCriticalPath = 1u << 8,      // --critical-path[=PATH]
  kSummary = 1u << 9,           // --summary=PATH --recorded=DATE
  kFaults = 1u << 10,           // --faults=SPEC
  kCheckConcurrency = 1u << 11, // --check-concurrency
  kKnobs = 1u << 12,  // --pipeline= --sync-streams= --coalesce= --two-level=
};

struct Options {
  bool quick = false;              // 64 ranks, 1/8 data
  bool breakdown = true;           // print the breakdown/sync/tail tables
  int files = 4;                   // files per experiment
  std::vector<std::string> combos; // empty = the whole sweep
  std::vector<std::string> cases;  // empty = all three cache cases
  std::vector<std::size_t> rpn = {2, 8, 16};  // ranks per node
  std::string trace_path;          // empty = no trace
  std::string report_path;         // empty = no report
  bool critical_path = false;      // analyze every run's critical path
  std::string critical_path_path;  // empty = tables only
  std::string summary_path;        // empty = no summary document
  std::string recorded;            // "recorded" stamp of the summary
  std::string faults_spec;         // empty = no fault scenario
  bool check_concurrency = false;  // attach the concurrency checker
  bool pipeline = true;            // double-buffered round loop
  int sync_streams = 4;            // in-flight flush streams per sync thread
  bool coalesce = true;            // coalesce adjacent sync requests
  bool two_level = false;          // two-level collective-write exchange

  bool combo_selected(const std::string& label) const;
  bool case_selected(workloads::CacheCase cache_case) const;
};

/// Parses argv[first, argc) into `options`, which holds the caller's
/// defaults; a list flag replaces its default. Exits 2 with `usage` on
/// any flag outside `accepted` or any malformed value.
void parse_options(int argc, char** argv, int first, unsigned accepted,
                   const std::string& usage, Options& options);

/// The flags in `accepted`, as a usage line fragment.
std::string flag_list(unsigned accepted);

/// Prints `message` and `usage` to stderr and exits 2.
[[noreturn]] void usage_error(const std::string& message,
                              const std::string& usage);

/// Paper testbed (512 ranks on 64 nodes), or 64 ranks on 16 nodes.
workloads::TestbedParams testbed_for(bool quick);

/// The paper's aggregator x cb sweep, with quarter-scale aggregator counts
/// at --quick.
std::vector<std::pair<int, Offset>> sweep_for(bool quick);

/// Compute delay between files: the paper's 30 s, 1/8 of it at --quick.
Time compute_delay_for(bool quick);

/// Counter `name` of the run report's metrics snapshot, 0 when absent.
double report_counter(const workloads::ExperimentResult& result,
                      const std::string& name);

}  // namespace e10::bench

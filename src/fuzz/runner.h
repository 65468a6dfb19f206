// Executes one fuzz Scenario against the full stack and checks the
// four-way oracle (docs/fuzzing.md):
//
//  1. Byte equality vs. the ByteStore POSIX reference model — whenever the
//     run surfaced no error on any rank, the global file must hold exactly
//     the reference bytes: its exact content hash must equal the
//     reference's (a sampled comparison then names up to five differing
//     bytes). Errors that *were* surfaced relax this to the no-garbage
//     invariant, checked on sampled bytes: every global-file byte equals
//     the reference byte or is still unwritten — abandoned extents may lose
//     data, but nothing may be corrupted.
//  2. Content-hash equality across hint configurations: a clean scenario
//     re-run under baseline hints (cache path flipped) must produce the
//     identical exact content hash.
//  3. Zero ConcurrencyChecker findings (lockset races, lock-order cycles).
//  4. Post-recovery byte-identity of journaled extents: after a crash-point
//     kill and CacheFile::recover() replay, every extent the journals know
//     about must match the reference model in the global file.
//
// Everything is deterministic: the same Scenario produces a byte-identical
// RunReport::to_text(), which the determinism tests and the shrinker's
// replay logic rely on.
#pragma once

#include <string>
#include <vector>

#include "common/units.h"
#include "fuzz/scenario.h"
#include "sim/engine.h"

namespace e10::fuzz {

/// One oracle violation; `oracle` names which of the four checks failed
/// ("byte_equality", "no_garbage", "cross_hints", "concurrency",
/// "recovery", or "engine" for a crashed/deadlocked simulation).
struct OracleViolation {
  std::string oracle;
  std::string detail;
};

/// Deterministic record of one scenario execution.
struct RunReport {
  bool engine_error = false;     // run() threw (deadlock, logic error)
  std::string engine_error_text;
  bool stopped = false;          // the crash point fired
  Time crash_at = 0;             // resolved crash time (0 = none)
  Time end_time = 0;             // final virtual time
  std::vector<int> rank_errors;  // Errc per rank (0 = ok)
  bool all_ok = false;           // every rank finished without error
  std::uint64_t checksum = 0;    // ByteStore::content_hash of the file
  Offset extent_end = 0;
  std::size_t races = 0;
  std::size_t cycles = 0;
  std::size_t shared_accesses = 0;
  std::int64_t faults_injected = 0;
  std::int64_t fault_crashes = 0;
  // Crash-point recovery tallies (zero when no crash fired).
  std::uint64_t recovered_extents = 0;
  Offset recovered_bytes = 0;
  std::uint64_t journal_extents_checked = 0;
  /// Scheduler self-metrics for the whole run (main pass + any recovery
  /// pass). Part of to_text(), so the determinism oracle catches scheduler
  /// divergence — two runs agreeing on file bytes but not on event counts
  /// took different paths to the same answer.
  sim::EngineStats engine_stats;

  /// Canonical text form; byte-identical across identical runs.
  std::string to_text() const;
};

struct RunOptions {
  /// Oracle 2: re-run clean scenarios under baseline hints and compare
  /// content checksums. Doubles the cost of clean runs; the shrinker turns
  /// it off while searching and back on for the final verdict.
  bool cross_check_hints = true;
  /// Oracle 3: attach the ConcurrencyChecker to the main run.
  bool check_concurrency = true;
};

struct RunResult {
  RunReport report;
  std::vector<OracleViolation> violations;
  bool ok() const { return violations.empty(); }
  /// Violations joined as "oracle: detail" lines (empty when ok).
  std::string violations_text() const;
};

/// Runs the scenario (resolving crash_frac to a concrete crash time via a
/// probe run when needed) and applies every applicable oracle.
RunResult run_scenario(const Scenario& scenario, const RunOptions& options = {});

/// Clean-run end time of the scenario's workload — the basis for resolving
/// crash_frac into a virtual crash time (and oracle 2's baseline).
Time probe_end_time(const Scenario& scenario);

}  // namespace e10::fuzz

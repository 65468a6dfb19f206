// Extent locks for cache coherency.
//
// Reproduces ROMIO's internal ADIOI_WRITE_LOCK / ADIOI_UNLOCK used by the
// paper's `e10_cache = coherent` mode (§III-B): a written extent stays
// locked from the cache write until the sync thread has made it persistent
// in the global file, so readers can never observe in-transit data.
//
// Concurrency discipline: the table itself is a monitor — every method is
// an engine-atomic critical section (it only yields at the predicate
// re-check points of lock()/wait_unlocked(), exactly like a condition-
// variable wait inside a monitor). The methods claim a synthetic monitor
// lock through the engine's ConcurrencyObserver, standing in for the
// pthread mutex ROMIO wraps around its lock lists, and each held extent is
// reported as a lock of kind `extent` so it shows up in locksets and
// deadlock reports.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/extent.h"
#include "sim/causal.h"
#include "sim/concurrency.h"
#include "sim/engine.h"
#include "sim/fifo.h"

namespace e10::cache {

class LockTable {
 public:
  explicit LockTable(sim::Engine& engine)
      : engine_(engine), tables_var_(engine, "cache.lock_table.files") {}
  LockTable(const LockTable&) = delete;
  LockTable& operator=(const LockTable&) = delete;

  /// Acquires an exclusive lock on `extent` of `path`; blocks while any
  /// overlapping extent is held.
  void lock(const std::string& path, const Extent& extent);

  /// Releases a previously acquired extent (must match exactly).
  void unlock(const std::string& path, const Extent& extent);

  /// Blocks until no held lock overlaps `extent` (reader-side check).
  void wait_unlocked(const std::string& path, const Extent& extent);

  /// True if any held lock overlaps (non-blocking query).
  bool is_locked(const std::string& path, const Extent& extent) const;

  std::size_t held_count(const std::string& path) const;

  /// Deterministic identity of the (path, extent) lock, for checker
  /// reports and tests.
  static sim::LockId extent_lock_id(const std::string& path,
                                    const Extent& extent);

 private:
  struct FileLocks {
    std::vector<Extent> held;
    sim::Fifo<sim::ProcessId> waiters;
    /// Causal emission of the latest release that woke waiters (0 = none).
    sim::CausalToken last_release = 0;
  };

  bool overlaps_held(const FileLocks& locks, const Extent& extent) const;
  void wake_all(FileLocks& locks);

  sim::Engine& engine_;
  /// Registered shared state: the per-file lock lists, accessed by every
  /// rank and sync-thread process under the table monitor.
  sim::SharedVar tables_var_;
  std::map<std::string, FileLocks> files_;
};

}  // namespace e10::cache

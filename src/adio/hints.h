// MPI-IO hint parsing and validation.
//
// Covers the standard ROMIO collective-I/O hints (paper Table I), the file
// striping hints, and the proposed E10 cache hint extensions (paper
// Table II) that this library reproduces.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "cache/flush_policy.h"
#include "common/status.h"
#include "common/units.h"
#include "mpi/info.h"

namespace e10::adio {

/// ROMIO tri-state for romio_cb_write / romio_cb_read.
enum class Toggle { enable, automatic, disable };

/// e10_cache (Table II): disable, enable, or enable with coherency locks.
enum class CacheMode { disable, enable, coherent };

struct Hints {
  // ---- Table I: collective I/O -------------------------------------------
  Toggle romio_cb_write = Toggle::automatic;
  Toggle romio_cb_read = Toggle::automatic;
  Offset cb_buffer_size = 16 * units::MiB;  // ROMIO default
  /// Number of aggregator processes; 0 means "one per compute node"
  /// (ROMIO's default cb_config_list behaviour).
  int cb_nodes = 0;
  /// cb_config_list, common subset: "*:k" caps aggregators per node at k
  /// ("*:*" = unlimited). ROMIO's default is "*:1".
  int cb_config_per_node = 1;

  // ---- File striping (affects collective I/O performance, §II-B) --------
  std::optional<Offset> striping_unit;
  std::optional<int> striping_factor;

  // ---- Table II: E10 cache extensions ------------------------------------
  CacheMode e10_cache = CacheMode::disable;
  std::string e10_cache_path = "/scratch";
  /// e10_cache_flush_flag: flush_immediate, flush_onclose, or `none`, a
  /// harness extension used to measure the paper's "TBW Cache Enable"
  /// series (write to cache, never flush) that is not part of the paper's
  /// hint table.
  cache::FlushPolicy e10_cache_flush_flag = cache::FlushPolicy::immediate;
  /// enable: cache file removed after the global file is closed;
  /// disable: retained until the user removes it.
  bool e10_cache_discard = true;
  /// Synchronisation (staging) buffer size for the cache flush; pre-existing
  /// ROMIO hint that also sets independent-write granularity.
  Offset ind_wr_buffer_size = 512 * units::KiB;
  /// EXTENSION beyond the paper's Table II (its §VI future work): serve
  /// reads from the local cache when the extent is fully cached. Off by
  /// default — the paper's semantics (§III-B) do not support cache reads.
  bool e10_cache_read = false;
  /// EXTENSION: record-journal the cache for crash recovery (sidecar
  /// WriteRecord/CommitRecord files next to the cache file). Off by
  /// default — the appends cost local-device time; fault scenarios with
  /// rank crashes enable it automatically.
  bool e10_cache_journal = false;
  /// EXTENSION (e10_pipeline_flag): double-buffer the collective write's
  /// round loop so round r's aggregator write stays in flight while round
  /// r+1's dissemination and shuffle proceed (docs/pipeline.md). "disable"
  /// restores the classic synchronous ext2ph round loop for ablations.
  bool e10_pipeline = true;
  /// EXTENSION (e10_sync_streams): concurrent in-flight flush streams the
  /// sync thread keeps outstanding against the PFS while draining the cache
  /// (docs/flush_scheduler.md). 1 restores the serial read-back→write drain.
  int e10_sync_streams = 4;
  /// EXTENSION (e10_flush_coalesce_flag): coalesce adjacent queued sync
  /// requests into shared stripe-aligned flush dispatches. "disable" flushes
  /// each request separately for ablations.
  bool e10_flush_coalesce = true;
  /// EXTENSION (e10_two_level_flag): two-level collective-write aggregation
  /// (docs/two_level.md). Each round gathers a node's contributions to the
  /// node leader over the intra-node (shared-memory) transport first, then
  /// runs a leaders-only inter-node dissemination and data exchange.
  /// "automatic" enables it when at least kTwoLevelAutoRanksPerNode ranks
  /// share a node — the sweep's break-even point — so flat placements keep
  /// the flat exchange. Default disable (bit-for-bit flat behaviour).
  Toggle e10_two_level = Toggle::disable;

  /// Ranks-per-node threshold at which e10_two_level_flag=automatic turns
  /// the two-level exchange on (results/BENCH_two_level.json: wins are
  /// consistent from 8 ranks per node up).
  static constexpr std::size_t kTwoLevelAutoRanksPerNode = 8;

  /// Segment size for the two-level data stage. Leaders split each merged
  /// per-aggregator bucket into segments of at most this size — matching
  /// the fabric's eager threshold — so the transfers stream to the
  /// aggregator while the previous round's write is still draining instead
  /// of rendezvous-stalling behind the collective-buffer hand-off. Both
  /// ends derive *which* pairs talk from the node hull / round window
  /// overlap; the first segment (the manifest) carries the follow-on
  /// segment count in-band, keeping the matching deterministic without a
  /// count exchange.
  static constexpr Offset kTwoLevelSegmentBytes = Offset{256} * units::KiB;

  /// Parses an Info object. Unknown keys are ignored (MPI semantics);
  /// malformed values of known keys are reported.
  static Result<Hints> parse(const mpi::Info& info);

  /// Hint echo, as MPI_File_get_info would return.
  mpi::Info to_info() const;
};

std::string to_string(Toggle t);
std::string to_string(CacheMode m);

}  // namespace e10::adio

// Striped parallel file system simulator (BeeGFS-like).
//
// The Pfs owns a namespace of striped files, one metadata server, and N data
// servers. Each data server has a CPU timeline (per-RPC overhead — this is
// what a storm of small requests overwhelms, the "small I/O problem" of
// paper §I) and a Device (HDD-RAID target with seek costs and service-time
// jitter). Clients are simulated processes; every call blocks the caller in
// virtual time until the modeled completion.
//
// Timing is modeled through resource timelines; file *content* is applied
// immediately at call time (single-active-thread invariant). Overlapping
// concurrent writes therefore resolve in call order — which is exactly the
// "undefined unless synchronized" territory of the MPI-IO consistency
// semantics this stack implements above it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/dataview.h"
#include "common/extent.h"
#include "common/status.h"
#include "common/units.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "pfs/stripe.h"
#include "sim/engine.h"
#include "storage/device.h"

namespace e10::fault {
class FaultInjector;
}

namespace e10::pfs {

struct PfsParams {
  std::size_t data_servers = 4;
  /// Per-target device model; speed imbalance can be set via speed_factors.
  storage::DeviceParams target = storage::pfs_target_params();
  /// Per-server persistent speed factors (size data_servers; default 1.0).
  std::vector<double> speed_factors;
  /// Server CPU cost per RPC (request parsing, buffer setup).
  Time server_rpc_overhead = units::microseconds(40);
  /// Metadata operation cost (open/create/stat/close/unlink).
  Time metadata_op_cost = units::microseconds(250);
  /// Defaults for files created without explicit striping hints; the paper
  /// fixes stripe size 4 MiB and stripe count 4.
  Offset default_stripe_unit = 4 * units::MiB;
  std::size_t default_stripe_count = 4;
  /// Whether writes take per-stripe extent locks (POSIX-compliant backends
  /// like Lustre/BeeGFS). Disabling models a PVFS-like lockless backend.
  bool extent_locking = true;
  /// Cost of moving a stripe lock between clients (revoke + regrant RPC).
  /// This is the false-sharing penalty that stripe-misaligned file domains
  /// pay (paper §I point (b), refs [19][20]).
  Time lock_handoff_penalty = units::milliseconds(2);
  /// Server-side write-back buffer per data server: ordinary writes are
  /// acknowledged as soon as the media backlog is below this (the servers
  /// have 32 GB of RAM); durable writes always wait for the media.
  Offset server_writeback_bytes = Offset{1536} * units::MiB;
};

struct StripeSettings {
  std::optional<Offset> stripe_unit;
  std::optional<std::size_t> stripe_count;
};

enum class OpenMode {
  read_only,
  write_only,
  read_write,
};

struct OpenOptions {
  OpenMode mode = OpenMode::read_write;
  bool create = false;
  bool exclusive = false;   // fail if the file exists (with create)
  bool truncate = false;
  StripeSettings striping;  // applied only on create
};

/// Opaque per-client file handle.
using FileHandle = std::uint64_t;

struct FileInfo {
  Offset size = 0;
  Offset stripe_unit = 0;
  std::size_t stripe_count = 0;
};

struct PfsStats {
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  Offset bytes_written = 0;
  Offset bytes_read = 0;
  std::uint64_t metadata_ops = 0;
  std::uint64_t lock_waits = 0;  // chunk writes that waited on a stripe lock
  Time lock_wait_time = 0;       // total virtual time spent waiting on locks
  std::uint64_t lock_handoffs = 0;  // stripe locks revoked from another client
};

class Pfs {
 public:
  /// `server_nodes` are the fabric node ids of the data servers (in order);
  /// `metadata_node` is the fabric node id of the metadata/management server.
  Pfs(sim::Engine& engine, net::Fabric& fabric,
      std::vector<std::size_t> server_nodes, std::size_t metadata_node,
      const PfsParams& params, std::uint64_t seed);

  // All calls below must run inside a simulated process; they block the
  // caller in virtual time. `client_node` is bound at open().

  Result<FileHandle> open(const std::string& path, std::size_t client_node,
                          const OpenOptions& options);
  Status close(FileHandle handle);
  /// Ordinary write: acknowledged once the data is in server memory (the
  /// write-back window), like a buffered file-system write.
  Status write(FileHandle handle, Offset offset, const DataView& data);
  /// Durable write: acknowledged only when the data is on the media. The
  /// cache sync thread uses this — completing a sync grequest *promises*
  /// the extent is persistent in the global file (paper §III-A).
  Status write_durable(FileHandle handle, Offset offset, const DataView& data);
  /// Nonblocking ordinary write: validates, applies the content, reserves
  /// the fabric/server/device timelines and returns the acknowledgement
  /// time *without* advancing the caller's clock. Stripe-lock and device
  /// reservations are made at issue time, so later operations serialize
  /// after this write exactly as if it had blocked. write() is
  /// write_async() + advance_to().
  Result<Time> write_async(FileHandle handle, Offset offset,
                           const DataView& data);
  /// Nonblocking durable write: same issue-time semantics as write_async(),
  /// but the returned completion time is when the data is on the media (not
  /// just in server memory). The cache flush scheduler drives its N
  /// concurrent flush streams over this — a sync grequest may only complete
  /// once the caller's clock has passed the returned time.
  Result<Time> write_durable_async(FileHandle handle, Offset offset,
                                   const DataView& data);
  Result<DataView> read(FileHandle handle, Offset offset, Offset length);
  Result<FileInfo> stat(FileHandle handle);
  /// Flush is a metadata round-trip in this model (servers are synchronous).
  Status sync(FileHandle handle);
  Status unlink(const std::string& path);
  bool exists(const std::string& path) const;

  const PfsParams& params() const { return params_; }
  const PfsStats& stats() const { return stats_; }
  std::size_t open_handles() const { return handles_.size(); }

  /// Attaches a metrics sink (or detaches with nullptr). Per-server
  /// request/byte counters ("pfs.server.<i>.*") are resolved once here so
  /// the per-chunk hot path only dereferences cached pointers.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Publishes the totals the PFS keeps itself into `registry`: every data
  /// server's device totals ("pfs.server.<i>.device.*") and the stripe-lock
  /// contention of PfsStats ("pfs.lock.*"). Idempotent, meant for report
  /// time.
  void export_metrics(obs::MetricsRegistry& registry) const;

  /// Attaches the fault injector (or detaches with nullptr): per-op
  /// transient failures, hard outage rejections at the chunk targets, and
  /// degradation windows on the server devices. Unarmed costs one branch
  /// per operation.
  void set_fault_injector(fault::FaultInjector* fault);

  // ---- Test/diagnostic access (no timing cost) ---------------------------

  /// Content of a file for verification; nullptr if absent.
  const ByteStore* peek(const std::string& path) const;
  Result<FileInfo> stat_path(const std::string& path) const;
  const storage::Device& server_device(std::size_t i) const;

 private:
  struct Inode {
    std::uint64_t id = 0;
    ByteStore data;
    Offset size = 0;
    StripeLayout layout{1, 1};
    // Per-stripe lock state (lock unit = stripe unit): when the lock frees
    // up and which client node last held it.
    struct StripeLock {
      Time free_at = 0;
      std::size_t holder = ~std::size_t{0};
    };
    std::unordered_map<Offset, StripeLock> stripe_locks;
    std::uint32_t open_count = 0;
  };

  struct OpenFile {
    std::shared_ptr<Inode> inode;
    std::size_t client_node = 0;
    OpenMode mode = OpenMode::read_write;
  };

  Time metadata_roundtrip(std::size_t client_node, Time now);
  Status write_impl(FileHandle handle, Offset offset, const DataView& data,
                    bool durable);
  Result<Time> write_async_impl(FileHandle handle, Offset offset,
                                const DataView& data, bool durable);
  /// Fault hooks for one data operation: the per-op transient draw, then a
  /// hard-outage scan over the chunk targets (a rejection costs one control
  /// round trip to the dead server). ok when no injector is armed.
  Status check_data_faults(const OpenFile& file, const Inode& inode,
                           const Extent& extent, bool write);
  OpenFile* lookup(FileHandle handle);
  std::size_t server_node(std::size_t target) const {
    return server_nodes_[target % server_nodes_.size()];
  }

  sim::Engine& engine_;
  net::Fabric& fabric_;
  std::vector<std::size_t> server_nodes_;
  std::size_t metadata_node_;
  PfsParams params_;
  std::vector<std::unique_ptr<storage::Device>> devices_;
  std::vector<sim::ResourceTimeline> server_cpu_;
  sim::ResourceTimeline metadata_cpu_;
  std::map<std::string, std::shared_ptr<Inode>> namespace_;
  std::unordered_map<FileHandle, OpenFile> handles_;
  FileHandle next_handle_ = 1;
  std::uint64_t next_inode_ = 1;
  PfsStats stats_;

  /// Cached instrument pointers (all null when no registry is attached).
  struct ServerCounters {
    obs::Counter* requests = nullptr;
    obs::Counter* bytes = nullptr;
  };
  std::vector<ServerCounters> server_counters_;
  fault::FaultInjector* fault_ = nullptr;
};

}  // namespace e10::pfs

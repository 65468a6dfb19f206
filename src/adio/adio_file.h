// ADIO file object and the driver-level operations on it, mirroring the
// ROMIO routines the paper modifies (Fig. 2 and §III-A):
//
//   open_coll          <-> ADIOI_GEN_OpenColl   (opens the cache file too)
//   write_contig       <-> ADIOI_GEN_WriteContig (writes to cache_fd when
//                                                 e10_cache is enabled)
//   write_strided_coll <-> ADIOI_GEN_WriteStridedColl + ADIOI_Exch_and_write
//   read_strided_coll  <-> ADIOI_GEN_ReadStridedColl
//   write_strided      <-> ADIOI_GEN_WriteStrided (data sieving)
//   flush              <-> ADIOI_GEN_Flush (waits on sync grequests)
//   close              <-> ADIO_Close (flush, close cache + global file)
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adio/hints.h"
#include "adio/io_context.h"
#include "cache/cache_file.h"
#include "common/dataview.h"
#include "common/status.h"
#include "mpi/comm.h"
#include "mpi/datatype.h"

namespace e10::adio {

/// Access mode flags (MPI_MODE_*).
namespace amode {
inline constexpr int rdonly = 0x01;
inline constexpr int wronly = 0x02;
inline constexpr int rdwr = 0x04;
inline constexpr int create = 0x08;
inline constexpr int excl = 0x10;
inline constexpr int delete_on_close = 0x20;
}  // namespace amode

/// ADIO driver, selected from the path prefix ("ufs:", "beegfs:"; no prefix
/// defaults to ufs). The beegfs driver aligns collective file domains to
/// stripe boundaries (paper §I footnote 1).
enum class Driver { ufs, beegfs };

struct AdioFile {
  IoContext* ctx = nullptr;
  mpi::Comm comm;
  std::string path;  // global path, driver prefix stripped
  Driver driver = Driver::ufs;
  int mode = 0;
  Hints hints;
  pfs::FileHandle handle = 0;

  // File view state (MPI_File_set_view; etype is always bytes here).
  Offset disp = 0;
  std::optional<mpi::FlatType> filetype;  // nullopt => contiguous bytes
  Offset fp_ind = 0;  // individual file pointer, in view-stream bytes

  bool atomic_mode = false;  // MPI_File_set_atomicity

  // E10 cache layer; null when disabled or when the cache open failed
  // (standard-open fallback per §III-A).
  std::unique_ptr<cache::CacheFile> cache;

  // Aggregators for this file, fixed at open (ROMIO computes them from
  // cb_nodes / cb_config_list at open time), the node hosting each, and
  // this rank's index among them (-1 when it is not one).
  std::vector<int> aggregators;
  std::vector<std::size_t> aggregator_nodes;
  int aggregator_index = -1;

  // Two-level collective-write exchange (docs/two_level.md), resolved once
  // at open from e10_two_level_flag and the communicator topology: active
  // only when some node hosts more than one rank.
  bool two_level = false;

  Offset stripe_unit = 0;  // resolved at open from the PFS file

  bool is_aggregator() const { return aggregator_index >= 0; }

  int rank() const { return comm.rank(); }
};

/// Collective open (all ranks of `comm` call it). Parses hints, opens the
/// global file, selects aggregators, and — when e10_cache is enabled —
/// opens the per-rank cache file on the node-local file system, reverting
/// to standard open if that fails.
Result<std::unique_ptr<AdioFile>> open_coll(IoContext& ctx, mpi::Comm comm,
                                            const std::string& path, int mode,
                                            const mpi::Info& info);

/// Collective close: flush (per the cache flush policy), stop the sync
/// thread, close cache + global files, exchange error codes.
Status close(AdioFile& fd);

/// MPI_File_sync: collective flush of cached data to the global file.
Status flush(AdioFile& fd);

/// MPI_File_set_view (collective). Resets the individual file pointer.
Status set_view(AdioFile& fd, Offset disp, std::optional<mpi::FlatType> type);

/// Contiguous write at an absolute file offset. Routes to the cache file
/// when the cache layer is active, creating the background sync request;
/// falls back to a direct PFS write when the cache cannot take the data.
/// The blocking form of iwrite_contig: same route, joined at completion.
Status write_contig(AdioFile& fd, Offset offset, const DataView& data);

/// Contiguous read at an absolute offset. Reads are served by the global
/// file (reads from cache are unsupported, §III-B); in coherent mode the
/// call blocks while any overlapping extent is in transit.
Result<DataView> read_contig(AdioFile& fd, Offset offset, Offset length);

/// Handle for a nonblocking contiguous write (iwrite_contig). The status is
/// fully determined at issue time in this model — the cache/PFS layers
/// validate and reserve their resource timelines synchronously and return
/// the completion time — so `request` only carries *when* the write
/// finishes. Waiting on it advances the caller's clock to `done`; an
/// invalid request means the write completed (or failed) synchronously.
struct [[nodiscard]] WriteHandle {
  Status status = Status::ok();
  mpi::Request request;
  Time issued = 0;
  Time done = 0;
  Offset bytes = 0;
};

/// Nonblocking contiguous write at an absolute file offset: the routing of
/// write_contig (cache first, PFS write-through fallback), but the caller's
/// clock does not advance to the device completion — join through the
/// returned handle before reusing the source buffer. The written content is
/// applied at issue time (single-active-process invariant), so issue order
/// defines content order exactly as for blocking writes.
WriteHandle iwrite_contig(AdioFile& fd, Offset offset, const DataView& data);

/// Collective write of this rank's flattened access list (extended
/// two-phase). Empty lists are fine — the rank still participates in the
/// synchronisation steps.
Status write_strided_coll(AdioFile& fd, const std::vector<mpi::IoPiece>& mine);

/// Collective read: returns one DataView per requested extent.
Result<std::vector<DataView>> read_strided_coll(
    AdioFile& fd, const std::vector<Extent>& wanted);

/// Independent strided write with data sieving: extents whose gaps are
/// smaller than the sieve buffer are coalesced into one
/// read-modify-write.
Status write_strided(AdioFile& fd, const std::vector<mpi::IoPiece>& pieces);

/// Independent strided read.
Result<std::vector<DataView>> read_strided(AdioFile& fd,
                                           const std::vector<Extent>& wanted);

/// Splits "driver:path" into (driver, bare path).
std::pair<Driver, std::string> parse_driver_path(const std::string& path);

/// The cache file open_coll creates for `rank` of the global file `path`
/// (bare, no driver prefix) in the directory `cache_dir` (e10_cache_path).
std::string cache_file_name(const std::string& cache_dir,
                            const std::string& path, int rank);

}  // namespace e10::adio

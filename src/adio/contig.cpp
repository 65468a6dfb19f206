#include "adio/adio_file.h"
#include "common/log.h"

namespace e10::adio {

namespace {

/// The one ADIOI_GEN_WriteContig route: the cache file when the cache layer
/// is active, a PFS write-through when it is off or cannot take the data.
/// Charges no device time to the caller; returns the completion time.
Result<Time> route_contig(AdioFile& fd, Offset offset, const DataView& data) {
  if (fd.cache != nullptr) {
    const auto cached = fd.cache->iwrite(Extent{offset, data.size()}, data);
    if (cached.is_ok()) return cached;
    // Cache cannot take the data (e.g. the scratch partition filled up):
    // fall back to a direct global-file write so no data is lost.
    log::warn("adio", "cache write failed (", cached.status().to_string(),
              "), writing through to the global file");
    fd.ctx->metrics.counter(obs::names::kCacheFallbackWrites).increment();
  }
  return fd.ctx->pfs.write_async(fd.handle, offset, data);
}

}  // namespace

Status write_contig(AdioFile& fd, Offset offset, const DataView& data) {
  if (offset < 0) {
    return Status::error(Errc::invalid_argument, "write_contig: offset < 0");
  }
  if (data.empty()) return Status::ok();

  obs::Span phase(fd.ctx->tracer, fd.rank(), prof::Phase::write_contig);
  phase.arg("bytes", static_cast<std::int64_t>(data.size()));
  const Result<Time> done = route_contig(fd, offset, data);
  if (!done.is_ok()) return done.status();
  fd.ctx->engine.advance_to(done.value());
  return Status::ok();
}

WriteHandle iwrite_contig(AdioFile& fd, Offset offset, const DataView& data) {
  WriteHandle handle;
  handle.issued = fd.ctx->engine.now();
  handle.done = handle.issued;
  handle.bytes = data.size();
  if (offset < 0) {
    handle.status =
        Status::error(Errc::invalid_argument, "iwrite_contig: offset < 0");
    return handle;
  }
  if (data.empty()) return handle;

  const Result<Time> done = route_contig(fd, offset, data);
  if (!done.is_ok()) {
    handle.status = done.status();
    return handle;
  }
  handle.done = done.value();
  handle.request = mpi::Request::grequest(fd.ctx->engine);
  handle.request.complete_at(handle.done);
  return handle;
}

Result<DataView> read_contig(AdioFile& fd, Offset offset, Offset length) {
  if (offset < 0 || length < 0) {
    return Status::error(Errc::invalid_argument, "read_contig: bad range");
  }
  if (length == 0) return DataView();

  obs::Span phase(fd.ctx->tracer, fd.rank(), prof::Phase::read_contig);
  phase.arg("bytes", static_cast<std::int64_t>(length));

  // EXTENSION (paper §VI future work, off by default): serve the read from
  // the local cache when the whole extent is cached here. The layout map in
  // CacheFile provides the metadata §III-B says generic cache reads need.
  if (fd.cache != nullptr && fd.hints.e10_cache_read) {
    if (auto hit = fd.cache->try_read(Extent{offset, length})) {
      fd.ctx->metrics.counter(obs::names::kCacheReadHitBytes).add(length);
      return std::move(*hit);
    }
    fd.ctx->metrics.counter(obs::names::kCacheReadMisses).increment();
  }

  // Otherwise reads are served by the global file; the cache is write-only
  // (§III-B). Coherent mode blocks while any overlapping extent is still in
  // transit from a cache to the global file.
  if (fd.hints.e10_cache == CacheMode::coherent) {
    fd.ctx->locks.wait_unlocked(fd.path, Extent{offset, length});
  }
  return fd.ctx->pfs.read(fd.handle, offset, length);
}

}  // namespace e10::adio

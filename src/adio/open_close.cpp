#include <algorithm>
#include <stdexcept>

#include "adio/adio_file.h"
#include "adio/aggregation.h"
#include "adio/coll_common.h"
#include "common/log.h"
#include "fault/fault_injector.h"

namespace e10::adio {

std::pair<Driver, std::string> parse_driver_path(const std::string& path) {
  if (path.starts_with("ufs:")) return {Driver::ufs, path.substr(4)};
  if (path.starts_with("beegfs:")) return {Driver::beegfs, path.substr(7)};
  return {Driver::ufs, path};
}

std::string cache_file_name(const std::string& cache_dir,
                            const std::string& path, int rank) {
  std::string base = path;
  std::replace(base.begin(), base.end(), '/', '_');
  return cache_dir + "/" + base + ".cache." + std::to_string(rank);
}

Result<std::unique_ptr<AdioFile>> open_coll(IoContext& ctx, mpi::Comm comm,
                                            const std::string& path, int mode,
                                            const mpi::Info& info) {
  obs::Span phase(ctx.tracer, comm.rank(), prof::Phase::open);
  auto fd = std::make_unique<AdioFile>();
  fd->ctx = &ctx;
  fd->comm = comm;
  fd->mode = mode;
  const auto [driver, bare] = parse_driver_path(path);
  fd->driver = driver;
  fd->path = bare;

  Status my_status = Status::ok();
  const auto hints = Hints::parse(info);
  if (!hints.is_ok()) {
    my_status = hints.status();
  } else {
    fd->hints = hints.value();
  }

  // Access-mode validation (MPI-2 rules, the subset that matters here).
  const int rw = mode & (amode::rdonly | amode::wronly | amode::rdwr);
  if (my_status.is_ok() &&
      (rw != amode::rdonly && rw != amode::wronly && rw != amode::rdwr)) {
    my_status = Status::error(Errc::invalid_argument,
                              "open: exactly one of rdonly/wronly/rdwr");
  }
  if (my_status.is_ok() && (mode & amode::rdonly) != 0 &&
      (mode & (amode::create | amode::excl)) != 0) {
    my_status = Status::error(Errc::invalid_argument,
                              "open: rdonly with create/excl");
  }

  // Open the global file. Rank 0 performs the create (and the EXCL check);
  // the others open the existing file after the broadcast — this is how
  // ROMIO keeps EXCL semantics collective.
  pfs::OpenOptions opts;
  opts.mode = (mode & amode::rdonly) != 0   ? pfs::OpenMode::read_only
              : (mode & amode::wronly) != 0 ? pfs::OpenMode::write_only
                                            : pfs::OpenMode::read_write;
  if (my_status.is_ok()) {
    opts.striping.stripe_unit = fd->hints.striping_unit;
    if (fd->hints.striping_factor) {
      opts.striping.stripe_count =
          static_cast<std::size_t>(*fd->hints.striping_factor);
    }
  }

  if (comm.rank() == 0 && my_status.is_ok()) {
    pfs::OpenOptions root = opts;
    root.create = (mode & amode::create) != 0;
    root.exclusive = (mode & amode::excl) != 0;
    const auto handle = ctx.pfs.open(fd->path, comm.node(), root);
    if (handle.is_ok()) {
      fd->handle = handle.value();
    } else {
      my_status = handle.status();
    }
  }
  const int root_err = comm.bcast(static_cast<int>(my_status.code()), 0);
  if (comm.rank() != 0) {
    if (root_err != 0) {
      my_status = Status::error(static_cast<Errc>(root_err),
                                "open failed on rank 0");
    } else if (my_status.is_ok()) {
      const auto handle = ctx.pfs.open(fd->path, comm.node(), opts);
      if (handle.is_ok()) {
        fd->handle = handle.value();
      } else {
        my_status = handle.status();
      }
    }
  }

  const Status agreed = agree_status(comm, my_status);
  if (!agreed.is_ok()) {
    if (fd->handle != 0) (void)ctx.pfs.close(fd->handle);
    return agreed;
  }

  const auto info_stat = ctx.pfs.stat(fd->handle);
  fd->stripe_unit = info_stat.is_ok() ? info_stat.value().stripe_unit : 0;

  fd->aggregators = select_aggregators(comm, fd->hints.cb_nodes,
                                       fd->hints.cb_config_per_node);
  fd->aggregator_nodes.reserve(fd->aggregators.size());
  for (std::size_t i = 0; i < fd->aggregators.size(); ++i) {
    fd->aggregator_nodes.push_back(comm.node_of(fd->aggregators[i]));
    if (fd->aggregators[i] == comm.rank()) {
      fd->aggregator_index = static_cast<int>(i);
    }
  }

  // Two-level exchange resolution (docs/two_level.md): the hint decides,
  // with "automatic" keyed to the topology; the intra-node gather stage only
  // exists when some node hosts more than one rank.
  const std::size_t rpn = comm.max_ranks_per_node();
  const bool want_two_level =
      fd->hints.e10_two_level == Toggle::enable ||
      (fd->hints.e10_two_level == Toggle::automatic &&
       rpn >= Hints::kTwoLevelAutoRanksPerNode);
  fd->two_level = want_two_level && rpn > 1 && comm.size() > 1;

  // E10 cache layer (ADIOI_GEN_OpenColl extension): open the cache file on
  // this rank's node-local file system; revert to standard open on failure.
  if (fd->hints.e10_cache != CacheMode::disable &&
      (mode & amode::rdonly) == 0) {
    cache::CacheFileParams params;
    params.global_path = fd->path;
    params.cache_path = cache_file_name(fd->hints.e10_cache_path, fd->path,
                                        comm.rank());
    params.rank = comm.rank();
    params.metrics = &ctx.metrics;
    params.tracer = &ctx.tracer;
    params.coherent = fd->hints.e10_cache == CacheMode::coherent;
    params.discard = fd->hints.e10_cache_discard;
    params.flush = fd->hints.e10_cache_flush_flag;
    params.drain.staging_bytes = fd->hints.ind_wr_buffer_size;
    params.drain.streams = fd->hints.e10_sync_streams;
    params.drain.coalesce = fd->hints.e10_flush_coalesce;
    // Stripe-align flush dispatches to the global file's layout so no
    // flush write crosses a data server.
    params.drain.stripe_unit = fd->stripe_unit;
    // Fault tolerance: the scenario injector supplies the crash schedule;
    // journaling is on when asked for by hint, or automatically whenever
    // the armed plan contains rank crashes (a crash without a journal
    // cannot be replayed).
    params.fault = &ctx.fault;
    params.journal =
        fd->hints.e10_cache_journal ||
        (ctx.fault.armed() && ctx.fault.plan().has_crashes());
    auto cache_file =
        cache::CacheFile::open(ctx.engine, ctx.lfs.at(comm.node()), ctx.pfs,
                               fd->handle, params, &ctx.locks);
    if (cache_file.is_ok()) {
      fd->cache = std::move(cache_file).value();
    } else {
      log::warn("adio", "cache open failed, reverting to standard open: ",
                cache_file.status().to_string());
    }
  }

  comm.barrier();
  return fd;
}

Status close(AdioFile& fd) {
  obs::Span phase(fd.ctx->tracer, fd.rank(), prof::Phase::close);
  Status my_status = Status::ok();

  if (fd.cache != nullptr) {
    // ADIO_Close invokes ADIOI_GEN_Flush so all cached data reaches the
    // global file before the close returns (§III-A). The wait time here is
    // the "not hidden" portion of the synchronisation cost.
    {
      obs::Span wait(fd.ctx->tracer, fd.rank(), prof::Phase::flush_wait);
      my_status = fd.cache->flush();
    }
    const Status closed = fd.cache->close();
    if (my_status.is_ok()) my_status = closed;
    fd.cache.reset();
  }

  const Status pfs_closed = fd.ctx->pfs.close(fd.handle);
  if (my_status.is_ok()) my_status = pfs_closed;
  fd.handle = 0;

  Status agreed = agree_status(fd.comm, my_status);

  if ((fd.mode & amode::delete_on_close) != 0) {
    fd.comm.barrier();
    if (fd.comm.rank() == 0) {
      const Status unlinked = fd.ctx->pfs.unlink(fd.path);
      if (agreed.is_ok()) agreed = unlinked;
    }
  }
  fd.comm.barrier();
  return agreed;
}

Status flush(AdioFile& fd) {
  Status my_status = Status::ok();
  if (fd.cache != nullptr) {
    obs::Span wait(fd.ctx->tracer, fd.rank(), prof::Phase::flush_wait);
    my_status = fd.cache->flush();
  } else {
    my_status = fd.ctx->pfs.sync(fd.handle);
  }
  const Status agreed = agree_status(fd.comm, my_status);
  fd.comm.barrier();
  return agreed;
}

Status set_view(AdioFile& fd, Offset disp,
                std::optional<mpi::FlatType> type) {
  if (disp < 0) {
    return Status::error(Errc::invalid_argument, "set_view: negative disp");
  }
  fd.disp = disp;
  fd.filetype = std::move(type);
  fd.fp_ind = 0;
  fd.comm.barrier();  // collective
  return Status::ok();
}

}  // namespace e10::adio

#include "pfs/pfs.h"

#include <algorithm>
#include <stdexcept>

#include "common/log.h"
#include "fault/fault_injector.h"
#include "sim/causal.h"

namespace e10::pfs {

namespace {
// Size of control messages (RPC request/acknowledgement) on the wire.
constexpr Offset kRpcMessageBytes = 256;
}  // namespace

Pfs::Pfs(sim::Engine& engine, net::Fabric& fabric,
         std::vector<std::size_t> server_nodes, std::size_t metadata_node,
         const PfsParams& params, std::uint64_t seed)
    : engine_(engine),
      fabric_(fabric),
      server_nodes_(std::move(server_nodes)),
      metadata_node_(metadata_node),
      params_(params),
      server_cpu_(params.data_servers) {
  if (server_nodes_.size() < params_.data_servers) {
    throw std::logic_error("Pfs: fewer server nodes than data servers");
  }
  devices_.reserve(params_.data_servers);
  for (std::size_t i = 0; i < params_.data_servers; ++i) {
    storage::DeviceParams dp = params_.target;
    if (i < params_.speed_factors.size()) {
      dp.speed_factor = params_.speed_factors[i];
    }
    devices_.push_back(std::make_unique<storage::Device>(
        "pfs-target-" + std::to_string(i), dp,
        Rng::derive(seed, "pfs-target-" + std::to_string(i))));
  }
}

void Pfs::set_metrics(obs::MetricsRegistry* metrics) {
  server_counters_.clear();
  if (metrics == nullptr) return;
  server_counters_.reserve(params_.data_servers);
  for (std::size_t i = 0; i < params_.data_servers; ++i) {
    const std::string prefix = "pfs.server." + std::to_string(i);
    server_counters_.push_back(
        ServerCounters{&metrics->counter(prefix + ".requests"),
                       &metrics->counter(prefix + ".bytes")});
  }
}

void Pfs::set_fault_injector(fault::FaultInjector* fault) {
  fault_ = fault;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    devices_[i]->set_fault_context(fault, static_cast<int>(i));
  }
}

Status Pfs::check_data_faults(const OpenFile& file, const Inode& inode,
                              const Extent& extent, bool write) {
  if (Status s = fault_->check(write ? fault::FaultOp::pfs_write
                                     : fault::FaultOp::pfs_read);
      !s) {
    return s;
  }
  const Time now = engine_.now();
  for (const StripeChunk& chunk : inode.layout.chunks(extent)) {
    if (!fault_->server_down(static_cast<int>(chunk.target), now)) continue;
    // The request still travels to the dead server's node and the error
    // comes back — one control-message round trip.
    const Time request = fabric_.delivery_estimate(
        file.client_node, server_node(chunk.target), kRpcMessageBytes, now);
    const Time bounced = fabric_.delivery_estimate(
        server_node(chunk.target), file.client_node, kRpcMessageBytes,
        request);
    engine_.advance_to(bounced);
    return Status::error(Errc::unavailable,
                         "pfs: data server " + std::to_string(chunk.target) +
                             " unavailable");
  }
  return Status::ok();
}

void Pfs::export_metrics(obs::MetricsRegistry& registry) const {
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    devices_[i]->snapshot_metrics(
        registry, "pfs.server." + std::to_string(i) + ".device");
  }
  registry.publish(obs::names::kLockWaits,
                   static_cast<std::int64_t>(stats_.lock_waits));
  registry.publish(obs::names::kLockWaitNs, stats_.lock_wait_time);
  registry.publish(obs::names::kLockHandoffs,
                   static_cast<std::int64_t>(stats_.lock_handoffs));
}

Time Pfs::metadata_roundtrip(std::size_t client_node, Time now) {
  ++stats_.metadata_ops;
  // Control messages use the unreserved delivery estimate: their bandwidth
  // is negligible and reply times may lie in the future.
  const Time request = fabric_.delivery_estimate(client_node, metadata_node_,
                                                 kRpcMessageBytes, now);
  const Time served = metadata_cpu_.reserve(request, params_.metadata_op_cost);
  return fabric_.delivery_estimate(metadata_node_, client_node,
                                   kRpcMessageBytes, served);
}

Pfs::OpenFile* Pfs::lookup(FileHandle handle) {
  const auto it = handles_.find(handle);
  return it == handles_.end() ? nullptr : &it->second;
}

Result<FileHandle> Pfs::open(const std::string& path, std::size_t client_node,
                             const OpenOptions& options) {
  if (fault_ != nullptr) {
    if (Status s = fault_->check(fault::FaultOp::pfs_metadata); !s) return s;
  }
  const Time done = metadata_roundtrip(client_node, engine_.now());
  engine_.advance_to(done);

  auto it = namespace_.find(path);
  if (it == namespace_.end()) {
    if (!options.create) {
      return Status::error(Errc::no_such_file, "pfs: " + path);
    }
    auto inode = std::make_shared<Inode>();
    inode->id = next_inode_++;
    const Offset unit =
        options.striping.stripe_unit.value_or(params_.default_stripe_unit);
    const std::size_t count = std::min(
        options.striping.stripe_count.value_or(params_.default_stripe_count),
        params_.data_servers);
    if (unit <= 0 || count == 0) {
      return Status::error(Errc::invalid_argument, "pfs: bad striping");
    }
    // Rotate the first target by inode id to spread load across servers.
    inode->layout = StripeLayout(
        unit, count, static_cast<std::size_t>(inode->id) % params_.data_servers);
    it = namespace_.emplace(path, std::move(inode)).first;
  } else {
    if (options.create && options.exclusive) {
      return Status::error(Errc::file_exists, "pfs: " + path);
    }
    if (options.truncate) {
      it->second->data.clear();
      it->second->size = 0;
    }
  }

  OpenFile open_file;
  open_file.inode = it->second;
  open_file.client_node = client_node;
  open_file.mode = options.mode;
  ++open_file.inode->open_count;
  const FileHandle handle = next_handle_++;
  handles_.emplace(handle, std::move(open_file));
  return handle;
}

Status Pfs::close(FileHandle handle) {
  OpenFile* file = lookup(handle);
  if (file == nullptr) {
    return Status::error(Errc::invalid_argument, "pfs: bad handle");
  }
  if (fault_ != nullptr) {
    if (Status s = fault_->check(fault::FaultOp::pfs_metadata); !s) return s;
  }
  const Time done = metadata_roundtrip(file->client_node, engine_.now());
  engine_.advance_to(done);
  // POSIX-style deferred removal: an unlinked-while-open inode loses its
  // namespace entry at unlink() time and its data when the last OpenFile's
  // shared_ptr drops here.
  --file->inode->open_count;
  handles_.erase(handle);
  return Status::ok();
}

Status Pfs::write(FileHandle handle, Offset offset, const DataView& data) {
  return write_impl(handle, offset, data, /*durable=*/false);
}

Status Pfs::write_durable(FileHandle handle, Offset offset,
                          const DataView& data) {
  return write_impl(handle, offset, data, /*durable=*/true);
}

Result<Time> Pfs::write_async(FileHandle handle, Offset offset,
                              const DataView& data) {
  return write_async_impl(handle, offset, data, /*durable=*/false);
}

Result<Time> Pfs::write_durable_async(FileHandle handle, Offset offset,
                                      const DataView& data) {
  return write_async_impl(handle, offset, data, /*durable=*/true);
}

Status Pfs::write_impl(FileHandle handle, Offset offset, const DataView& data,
                       bool durable) {
  const auto completion = write_async_impl(handle, offset, data, durable);
  if (!completion.is_ok()) return completion.status();
  engine_.advance_to(completion.value());
  return Status::ok();
}

Result<Time> Pfs::write_async_impl(FileHandle handle, Offset offset,
                                   const DataView& data, bool durable) {
  OpenFile* file = lookup(handle);
  if (file == nullptr) {
    return Status::error(Errc::invalid_argument, "pfs: bad handle");
  }
  if (file->mode == OpenMode::read_only) {
    return Status::error(Errc::permission_denied, "pfs: read-only handle");
  }
  if (offset < 0) {
    return Status::error(Errc::invalid_argument, "pfs: negative offset");
  }
  if (data.empty()) return engine_.now();

  Inode& inode = *file->inode;
  if (fault_ != nullptr) {
    if (Status s = check_data_faults(*file, inode, Extent{offset, data.size()},
                                     /*write=*/true);
        !s) {
      return s;
    }
  }

  ++stats_.writes;
  stats_.bytes_written += data.size();

  const Time now = engine_.now();
  Time completion = now;
  for (const StripeChunk& chunk :
       inode.layout.chunks(Extent{offset, data.size()})) {
    // Request + payload travel to the owning data server.
    const std::size_t target = chunk.target;
    if (!server_counters_.empty()) {
      server_counters_[target].requests->increment();
      server_counters_[target].bytes->add(chunk.extent.length);
    }
    const Time arrival = fabric_.transfer(file->client_node,
                                          server_node(target),
                                          kRpcMessageBytes + chunk.extent.length,
                                          now);
    // Server CPU handles the RPC...
    const Time cpu_done =
        server_cpu_[target].reserve(arrival, params_.server_rpc_overhead);
    Time io_start = cpu_done;
    Inode::StripeLock* lock = nullptr;
    // ...takes the stripe lock (lock unit = stripe, per §II-B). The lock is
    // held until the device I/O completes; handing it to a different client
    // costs a revoke/regrant round trip — the false-sharing penalty of
    // stripe-misaligned file domains.
    if (params_.extent_locking) {
      lock = &inode.stripe_locks[chunk.stripe_index];
      // The grant is a lease: a client already holding the stripe lock
      // pipelines further writes under it (the device timeline serializes
      // the media), while a different client waits for the holder's I/O
      // and pays the revoke/regrant round trip.
      const bool held = lock->holder == file->client_node;
      Time granted = held ? cpu_done : std::max(lock->free_at, cpu_done);
      if (lock->holder != ~std::size_t{0} && !held) {
        granted += params_.lock_handoff_penalty;
        ++stats_.lock_handoffs;
      }
      if (granted > cpu_done) {
        ++stats_.lock_waits;
        stats_.lock_wait_time += granted - cpu_done;
        // Overlay for the critical-path analyzer: this slice of the write's
        // service latency was stripe-lock wait, not media time.
        if (sim::CausalObserver* causal = engine_.causal_observer();
            causal != nullptr && engine_.in_process()) {
          causal->interval(sim::EdgeKind::lock_wait, engine_.current(),
                           cpu_done, granted);
        }
      }
      io_start = granted;
    }
    // ...and performs the device I/O.
    const Time io_done = devices_[target]->submit(
        io_start, storage::IoKind::write, chunk.target_offset,
        chunk.extent.length);
    if (lock != nullptr) {
      // Pipelined same-holder writes can complete out of order; the lock
      // frees for other clients only after the last of them.
      lock->free_at = std::max(lock->free_at, io_done);
      lock->holder = file->client_node;
    }
    // Durable writes are acknowledged when the media has the data; ordinary
    // writes as soon as the server's write-back backlog drops below the
    // window (the data sits safely in server RAM).
    Time ack_ready = io_done;
    if (!durable) {
      const Time window = static_cast<Time>(
          static_cast<double>(params_.server_writeback_bytes) * 1e9 /
          static_cast<double>(params_.target.write_bytes_per_second));
      ack_ready = std::max(cpu_done, io_done - window);
    }
    const Time acked = fabric_.delivery_estimate(
        server_node(target), file->client_node, kRpcMessageBytes, ack_ready);
    completion = std::max(completion, acked);
  }

  inode.data.write(offset, data);
  inode.size = std::max(inode.size, offset + data.size());
  return completion;
}

Result<DataView> Pfs::read(FileHandle handle, Offset offset, Offset length) {
  OpenFile* file = lookup(handle);
  if (file == nullptr) {
    return Status::error(Errc::invalid_argument, "pfs: bad handle");
  }
  if (file->mode == OpenMode::write_only) {
    return Status::error(Errc::permission_denied, "pfs: write-only handle");
  }
  if (offset < 0 || length < 0) {
    return Status::error(Errc::invalid_argument, "pfs: negative read range");
  }
  Inode& inode = *file->inode;
  const Offset clamped = std::max<Offset>(
      0, std::min(length, inode.size - offset));
  if (clamped == 0) return DataView();

  if (fault_ != nullptr) {
    if (Status s = check_data_faults(*file, inode, Extent{offset, clamped},
                                     /*write=*/false);
        !s) {
      return s;
    }
  }

  ++stats_.reads;
  stats_.bytes_read += clamped;

  const Time now = engine_.now();
  Time completion = now;
  for (const StripeChunk& chunk :
       inode.layout.chunks(Extent{offset, clamped})) {
    const std::size_t target = chunk.target;
    if (!server_counters_.empty()) {
      server_counters_[target].requests->increment();
      server_counters_[target].bytes->add(chunk.extent.length);
    }
    const Time request = fabric_.delivery_estimate(
        file->client_node, server_node(target), kRpcMessageBytes, now);
    const Time cpu_done =
        server_cpu_[target].reserve(request, params_.server_rpc_overhead);
    const Time io_done = devices_[target]->submit(
        cpu_done, storage::IoKind::read, chunk.target_offset,
        chunk.extent.length);
    // The data return starts at io_done, typically in this client's future:
    // use the unreserved estimate (a FIFO NIC reservation at a future time
    // would stall unrelated traffic).
    const Time delivered = fabric_.delivery_estimate(
        server_node(target), file->client_node,
        kRpcMessageBytes + chunk.extent.length, io_done);
    completion = std::max(completion, delivered);
  }
  engine_.advance_to(completion);
  return inode.data.read(offset, clamped);
}

Result<FileInfo> Pfs::stat(FileHandle handle) {
  OpenFile* file = lookup(handle);
  if (file == nullptr) {
    return Status::error(Errc::invalid_argument, "pfs: bad handle");
  }
  if (fault_ != nullptr) {
    if (Status s = fault_->check(fault::FaultOp::pfs_metadata); !s) return s;
  }
  const Time done = metadata_roundtrip(file->client_node, engine_.now());
  engine_.advance_to(done);
  const Inode& inode = *file->inode;
  return FileInfo{inode.size, inode.layout.stripe_unit(),
                  inode.layout.stripe_count()};
}

Status Pfs::sync(FileHandle handle) {
  OpenFile* file = lookup(handle);
  if (file == nullptr) {
    return Status::error(Errc::invalid_argument, "pfs: bad handle");
  }
  if (fault_ != nullptr) {
    if (Status s = fault_->check(fault::FaultOp::pfs_metadata); !s) return s;
  }
  const Time done = metadata_roundtrip(file->client_node, engine_.now());
  engine_.advance_to(done);
  return Status::ok();
}

Status Pfs::unlink(const std::string& path) {
  const auto it = namespace_.find(path);
  if (it == namespace_.end()) {
    return Status::error(Errc::no_such_file, "pfs: " + path);
  }
  // Open handles keep the inode alive through their shared_ptr; the name
  // disappears immediately either way.
  namespace_.erase(it);
  return Status::ok();
}

bool Pfs::exists(const std::string& path) const {
  return namespace_.contains(path);
}

const ByteStore* Pfs::peek(const std::string& path) const {
  const auto it = namespace_.find(path);
  return it == namespace_.end() ? nullptr : &it->second->data;
}

Result<FileInfo> Pfs::stat_path(const std::string& path) const {
  const auto it = namespace_.find(path);
  if (it == namespace_.end()) {
    return Status::error(Errc::no_such_file, "pfs: " + path);
  }
  const Inode& inode = *it->second;
  return FileInfo{inode.size, inode.layout.stripe_unit(),
                  inode.layout.stripe_count()};
}

const storage::Device& Pfs::server_device(std::size_t i) const {
  return *devices_.at(i);
}

}  // namespace e10::pfs

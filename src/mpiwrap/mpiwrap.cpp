#include "mpiwrap/mpiwrap.h"

#include "adio/adio_file.h"
#include "common/log.h"

namespace e10::mpiwrap {

Result<Mpiwrap> Mpiwrap::create(adio::IoContext& ctx,
                                const std::string& config_text) {
  auto config = Config::parse(config_text);
  if (!config.is_ok()) return config.status();
  return Mpiwrap(ctx, std::move(config).value());
}

const ConfigSection* Mpiwrap::section_for(const std::string& path) const {
  const auto [driver, bare] = adio::parse_driver_path(path);
  return config_.match("file:" + bare);
}

Result<mpiio::File> Mpiwrap::open(mpi::Comm comm, const std::string& path,
                                  int mode, const mpi::Info& user_info) {
  ++stats_.opens;
  const ConfigSection* section = section_for(path);

  // The paper's workflow trick: the previous file of this family is really
  // closed *now*, just before the new open — by this time the background
  // sync has (hopefully) finished during the compute phase.
  if (section != nullptr) {
    const auto it = deferred_.find(section->name());
    if (it != deferred_.end()) {
      ++stats_.delayed_real_closes;
      Deferred pending = std::move(it->second);
      deferred_.erase(it);
      deferred_pattern_of_path_.erase(pending.path);
      if (const Status closed = pending.file.close(); !closed.is_ok()) {
        return closed;
      }
    }
  }

  mpi::Info info;
  if (section != nullptr) {
    for (const auto& [key, value] : section->entries()) {
      if (key == "deferred_close") continue;  // wrapper-level, not a hint
      info.set(key, value);
      ++stats_.hint_injections;
    }
  }
  info.merge(user_info);  // user-provided hints win

  auto file = mpiio::File::open(*ctx_, comm, path, mode, info);
  if (!file.is_ok()) return file.status();

  if (section != nullptr) {
    const auto deferred = section->get_bool("deferred_close", false);
    if (deferred.is_ok() && deferred.value()) {
      deferred_pattern_of_path_[path] = section->name();
    }
  }
  return file;
}

Status Mpiwrap::close(mpiio::File file) {
  if (!file.valid()) {
    return Status::error(Errc::invalid_argument, "close of invalid file");
  }
  const std::string path = file.raw()->path;
  // Look up by the bare path the file was opened with.
  for (const auto& [opened_path, pattern] : deferred_pattern_of_path_) {
    const auto [driver, bare] = adio::parse_driver_path(opened_path);
    if (bare != path) continue;
    // Defer: pretend success, keep the handle for the next open.
    auto [it, inserted] =
        deferred_.try_emplace(pattern, Deferred{std::move(file), opened_path});
    if (!inserted) {
      // An older sibling is still pending (shouldn't happen with the
      // paper's one-file-at-a-time workflow): close it for real first.
      ++stats_.delayed_real_closes;
      Deferred old = std::move(it->second);
      deferred_pattern_of_path_.erase(old.path);
      it->second = Deferred{std::move(file), opened_path};
      ++stats_.deferred_closes;
      return old.file.close();
    }
    ++stats_.deferred_closes;
    return Status::ok();
  }
  ++stats_.immediate_closes;
  return file.close();
}

Status Mpiwrap::finalize() {
  Status status = Status::ok();
  for (auto& [pattern, pending] : deferred_) {
    ++stats_.finalize_closes;
    const Status closed = pending.file.close();
    if (status.is_ok()) status = closed;
  }
  deferred_.clear();
  deferred_pattern_of_path_.clear();
  return status;
}

}  // namespace e10::mpiwrap

#include "adio/hints.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <limits>
#include <string_view>
#include <utility>

namespace e10::adio {

namespace {

/// e10_cache_flush_flag's spellings, for parsing and the echo.
constexpr std::pair<std::string_view, cache::FlushPolicy> kFlushFlags[] = {
    {"flush_immediate", cache::FlushPolicy::immediate},
    {"flush_onclose", cache::FlushPolicy::onclose},
    {"none", cache::FlushPolicy::none},
};

Status invalid(std::string_view key, std::string_view what,
               std::string_view value) {
  std::string message(key);
  message.append(what).append(value);
  return Status::error(Errc::invalid_argument, std::move(message));
}

Result<Toggle> parse_toggle(std::string_view key, std::string_view value) {
  if (value == "enable" || value == "true") return Toggle::enable;
  if (value == "disable" || value == "false") return Toggle::disable;
  if (value == "automatic") return Toggle::automatic;
  return invalid(key, ": bad value ", value);
}

Result<bool> parse_flag(std::string_view key, std::string_view value) {
  if (value == "enable") return true;
  if (value == "disable") return false;
  return invalid(key, ": bad value ", value);
}

Result<Offset> parse_bytes(std::string_view key, std::string_view value) {
  Offset out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc() || ptr != value.data() + value.size() || out <= 0) {
    return invalid(key, ": not a positive byte count: ", value);
  }
  return out;
}

Result<int> parse_int(std::string_view key, std::string_view value) {
  int out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc() || ptr != value.data() + value.size() || out <= 0) {
    return invalid(key, ": not a positive integer: ", value);
  }
  return out;
}

}  // namespace

std::string to_string(Toggle t) {
  switch (t) {
    case Toggle::enable: return "enable";
    case Toggle::automatic: return "automatic";
    case Toggle::disable: return "disable";
  }
  return "?";
}

std::string to_string(CacheMode m) {
  switch (m) {
    case CacheMode::disable: return "disable";
    case CacheMode::enable: return "enable";
    case CacheMode::coherent: return "coherent";
  }
  return "?";
}

Result<Hints> Hints::parse(const mpi::Info& info) {
  Hints hints;
  if (const std::string* v = info.find("romio_cb_write")) {
    auto t = parse_toggle("romio_cb_write", *v);
    if (!t.is_ok()) return t.status();
    hints.romio_cb_write = t.value();
  }
  if (const std::string* v = info.find("romio_cb_read")) {
    auto t = parse_toggle("romio_cb_read", *v);
    if (!t.is_ok()) return t.status();
    hints.romio_cb_read = t.value();
  }
  if (const std::string* v = info.find("cb_buffer_size")) {
    auto b = parse_bytes("cb_buffer_size", *v);
    if (!b.is_ok()) return b.status();
    hints.cb_buffer_size = b.value();
  }
  if (const std::string* v = info.find("cb_nodes")) {
    auto n = parse_int("cb_nodes", *v);
    if (!n.is_ok()) return n.status();
    hints.cb_nodes = n.value();
  }
  if (const std::string* v = info.find("cb_config_list")) {
    // Common subset: "*:k" or "*:*".
    const std::string_view value = *v;
    if (value.starts_with("*:")) {
      const std::string_view count = value.substr(2);
      if (count == "*") {
        hints.cb_config_per_node = std::numeric_limits<int>::max();
      } else {
        auto n = parse_int("cb_config_list", count);
        if (!n.is_ok()) return n.status();
        hints.cb_config_per_node = n.value();
      }
    } else {
      return Status::error(Errc::not_supported,
                           "cb_config_list: only '*:k' forms are supported");
    }
  }
  if (const std::string* v = info.find("striping_unit")) {
    auto b = parse_bytes("striping_unit", *v);
    if (!b.is_ok()) return b.status();
    hints.striping_unit = b.value();
  }
  if (const std::string* v = info.find("striping_factor")) {
    auto n = parse_int("striping_factor", *v);
    if (!n.is_ok()) return n.status();
    hints.striping_factor = n.value();
  }
  if (const std::string* v = info.find("e10_cache")) {
    if (*v == "enable") {
      hints.e10_cache = CacheMode::enable;
    } else if (*v == "disable") {
      hints.e10_cache = CacheMode::disable;
    } else if (*v == "coherent") {
      hints.e10_cache = CacheMode::coherent;
    } else {
      return invalid("e10_cache", ": bad value ", *v);
    }
  }
  if (const std::string* v = info.find("e10_cache_path")) {
    if (v->empty()) {
      return Status::error(Errc::invalid_argument, "e10_cache_path: empty");
    }
    hints.e10_cache_path = *v;
  }
  if (const std::string* v = info.find("e10_cache_flush_flag")) {
    const auto* flag =
        std::find_if(std::begin(kFlushFlags), std::end(kFlushFlags),
                     [v](const auto& entry) { return entry.first == *v; });
    if (flag == std::end(kFlushFlags)) {
      return invalid("e10_cache_flush_flag", ": bad value ", *v);
    }
    hints.e10_cache_flush_flag = flag->second;
  }
  if (const std::string* v = info.find("e10_cache_discard_flag")) {
    auto f = parse_flag("e10_cache_discard_flag", *v);
    if (!f.is_ok()) return f.status();
    hints.e10_cache_discard = f.value();
  }
  if (const std::string* v = info.find("e10_cache_read")) {
    auto f = parse_flag("e10_cache_read", *v);
    if (!f.is_ok()) return f.status();
    hints.e10_cache_read = f.value();
  }
  if (const std::string* v = info.find("e10_cache_journal")) {
    auto f = parse_flag("e10_cache_journal", *v);
    if (!f.is_ok()) return f.status();
    hints.e10_cache_journal = f.value();
  }
  if (const std::string* v = info.find("e10_pipeline_flag")) {
    auto f = parse_flag("e10_pipeline_flag", *v);
    if (!f.is_ok()) return f.status();
    hints.e10_pipeline = f.value();
  }
  if (const std::string* v = info.find("e10_sync_streams")) {
    auto n = parse_int("e10_sync_streams", *v);
    if (!n.is_ok()) return n.status();
    hints.e10_sync_streams = n.value();
  }
  if (const std::string* v = info.find("e10_flush_coalesce_flag")) {
    auto f = parse_flag("e10_flush_coalesce_flag", *v);
    if (!f.is_ok()) return f.status();
    hints.e10_flush_coalesce = f.value();
  }
  if (const std::string* v = info.find("e10_two_level_flag")) {
    auto t = parse_toggle("e10_two_level_flag", *v);
    if (!t.is_ok()) return t.status();
    hints.e10_two_level = t.value();
  }
  if (const std::string* v = info.find("ind_wr_buffer_size")) {
    auto b = parse_bytes("ind_wr_buffer_size", *v);
    if (!b.is_ok()) return b.status();
    hints.ind_wr_buffer_size = b.value();
  }
  return hints;
}

mpi::Info Hints::to_info() const {
  mpi::Info info;
  info.set("romio_cb_write", to_string(romio_cb_write));
  info.set("cb_config_list",
           cb_config_per_node == std::numeric_limits<int>::max()
               ? "*:*"
               : "*:" + std::to_string(cb_config_per_node));
  info.set("romio_cb_read", to_string(romio_cb_read));
  info.set("cb_buffer_size", std::to_string(cb_buffer_size));
  if (cb_nodes > 0) info.set("cb_nodes", std::to_string(cb_nodes));
  if (striping_unit) info.set("striping_unit", std::to_string(*striping_unit));
  if (striping_factor) {
    info.set("striping_factor", std::to_string(*striping_factor));
  }
  info.set("e10_cache", to_string(e10_cache));
  info.set("e10_cache_path", e10_cache_path);
  for (const auto& [name, policy] : kFlushFlags) {
    if (policy == e10_cache_flush_flag) {
      info.set("e10_cache_flush_flag", std::string(name));
    }
  }
  info.set("e10_cache_discard_flag",
           e10_cache_discard ? "enable" : "disable");
  info.set("ind_wr_buffer_size", std::to_string(ind_wr_buffer_size));
  info.set("e10_cache_read", e10_cache_read ? "enable" : "disable");
  info.set("e10_cache_journal", e10_cache_journal ? "enable" : "disable");
  info.set("e10_pipeline_flag", e10_pipeline ? "enable" : "disable");
  info.set("e10_sync_streams", std::to_string(e10_sync_streams));
  info.set("e10_flush_coalesce_flag",
           e10_flush_coalesce ? "enable" : "disable");
  info.set("e10_two_level_flag", to_string(e10_two_level));
  return info;
}

}  // namespace e10::adio

#include "common/log.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

namespace e10::log {

namespace {

std::atomic<ContextHook> g_context_hook{nullptr};

/// E10_LOG_COMPONENTS, parsed once. Empty = everything allowed.
const std::vector<std::string>& component_allowlist() {
  static const std::vector<std::string> list = [] {
    std::vector<std::string> out;
    const char* env = std::getenv("E10_LOG_COMPONENTS");
    if (env == nullptr) return out;
    std::string token;
    for (const char* c = env;; ++c) {
      if (*c == ',' || *c == '\0') {
        if (!token.empty()) out.push_back(token);
        token.clear();
        if (*c == '\0') break;
      } else if (*c != ' ') {
        token += *c;
      }
    }
    return out;
  }();
  return list;
}

Level parse_env() {
  const char* env = std::getenv("E10_LOG");
  if (env == nullptr) return Level::warn;
  const std::string s(env);
  if (s == "error") return Level::error;
  if (s == "warn") return Level::warn;
  if (s == "info") return Level::info;
  if (s == "debug") return Level::debug;
  if (s == "trace") return Level::trace;
  return Level::warn;
}

constexpr const char* level_name(Level l) {
  switch (l) {
    case Level::error: return "error";
    case Level::warn: return "warn";
    case Level::info: return "info";
    case Level::debug: return "debug";
    case Level::trace: return "trace";
  }
  return "?";
}

}  // namespace

Level level() {
  static const Level parsed = parse_env();
  return parsed;
}

bool enabled(Level l) { return static_cast<int>(l) <= static_cast<int>(level()); }

bool enabled(Level l, std::string_view component) {
  if (!enabled(l)) return false;
  if (static_cast<int>(l) <= static_cast<int>(Level::warn)) return true;
  const std::vector<std::string>& allow = component_allowlist();
  if (allow.empty()) return true;
  for (const std::string& name : allow) {
    if (name == component) return true;
  }
  return false;
}

void set_context_hook(ContextHook hook) {
  g_context_hook.store(hook, std::memory_order_relaxed);
}

void write(Level l, std::string_view component, std::string_view message) {
  static std::mutex mu;
  const std::lock_guard<std::mutex> guard(mu);
  std::string prefix;
  if (const ContextHook hook =
          g_context_hook.load(std::memory_order_relaxed);
      hook != nullptr) {
    std::int64_t now_ns = 0;
    std::string process;
    if (hook(now_ns, process)) {
      char stamp[48];
      std::snprintf(stamp, sizeof(stamp), "[%.6fs ",
                    static_cast<double>(now_ns) * 1e-9);
      prefix = stamp + process + "] ";
    }
  }
  std::fprintf(stderr, "%s[%s] %.*s: %.*s\n", prefix.c_str(), level_name(l),
               static_cast<int>(component.size()), component.data(),
               static_cast<int>(message.size()), message.data());
}

}  // namespace e10::log

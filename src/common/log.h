// Minimal leveled logging. Level is read once from the E10_LOG environment
// variable (error|warn|info|debug|trace); default is warn so tests and
// benches stay quiet. E10_LOG_COMPONENTS (comma-separated component names)
// restricts info/debug/trace output to the listed components; error/warn
// always pass. When a simulation is active, lines are prefixed with the
// virtual timestamp and the simulated process (rank, sync thread) that
// emitted them.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

namespace e10::log {

enum class Level { error = 0, warn = 1, info = 2, debug = 3, trace = 4 };

/// The process-wide log level (initialized from E10_LOG on first use).
Level level();

bool enabled(Level l);

/// Level check plus the E10_LOG_COMPONENTS allowlist. error/warn lines
/// always pass the allowlist (you don't want a filter hiding failures).
bool enabled(Level l, std::string_view component);

/// Context provider, installed by the simulation engine: fills the virtual
/// timestamp (ns) and the emitting simulated process's name, or returns
/// false when no simulated process is active (the prefix is then omitted).
using ContextHook = bool (*)(std::int64_t& now_ns, std::string& name);
void set_context_hook(ContextHook hook);

/// Writes one line to stderr: "[level] component: message", prefixed with
/// "[<virtual time>s <process>] " when a context hook reports one.
void write(Level l, std::string_view component, std::string_view message);

namespace detail {
template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}
}  // namespace detail

template <typename... Args>
void error(std::string_view component, Args&&... args) {
  if (enabled(Level::error, component))
    write(Level::error, component, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void warn(std::string_view component, Args&&... args) {
  if (enabled(Level::warn, component))
    write(Level::warn, component, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void info(std::string_view component, Args&&... args) {
  if (enabled(Level::info, component))
    write(Level::info, component, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void debug(std::string_view component, Args&&... args) {
  if (enabled(Level::debug, component))
    write(Level::debug, component, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void trace(std::string_view component, Args&&... args) {
  if (enabled(Level::trace, component))
    write(Level::trace, component, detail::concat(std::forward<Args>(args)...));
}

}  // namespace e10::log

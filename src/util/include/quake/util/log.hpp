#pragma once

// Minimal leveled logging to stderr. Quiet by default in tests; benches and
// examples raise the level explicitly.

#include <cstdio>
#include <string>

namespace quake::util {

enum class LogLevel : int { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

// Process-wide log threshold. Not synchronized: set it once at startup.
LogLevel& log_level() noexcept;

void vlog(LogLevel level, const char* fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 2, 3)))
#endif
    ;

inline bool log_enabled(LogLevel level) noexcept {
  return static_cast<int>(level) <= static_cast<int>(log_level());
}

// The arguments are evaluated only when the level is enabled, so a debug
// line may compute what it prints (even a solve) at no cost when quiet.
#define QUAKE_LOG_AT(level, ...) \
  (::quake::util::log_enabled(level) ? ::quake::util::vlog(level, __VA_ARGS__) : void())
#define QUAKE_LOG_INFO(...) QUAKE_LOG_AT(::quake::util::LogLevel::kInfo, __VA_ARGS__)
#define QUAKE_LOG_WARN(...) QUAKE_LOG_AT(::quake::util::LogLevel::kWarn, __VA_ARGS__)
#define QUAKE_LOG_ERROR(...) QUAKE_LOG_AT(::quake::util::LogLevel::kError, __VA_ARGS__)
#define QUAKE_LOG_DEBUG(...) QUAKE_LOG_AT(::quake::util::LogLevel::kDebug, __VA_ARGS__)

}  // namespace quake::util

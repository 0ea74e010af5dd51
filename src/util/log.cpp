#include "quake/util/log.hpp"

#include <cstdarg>
#include <cstdlib>

namespace quake::util {

LogLevel& log_level() noexcept {
  static LogLevel level = [] {
    // Env override: QUAKE_LOG = error | warn | info | debug.
    const char* env = std::getenv("QUAKE_LOG");
    if (env == nullptr) return LogLevel::kWarn;
    switch (env[0]) {
      case 'e': return LogLevel::kError;
      case 'i': return LogLevel::kInfo;
      case 'd': return LogLevel::kDebug;
      default: return LogLevel::kWarn;
    }
  }();
  return level;
}

void vlog(LogLevel level, const char* fmt, ...) {
  if (!log_enabled(level)) return;
  static const char* tags[] = {"ERROR", "WARN ", "INFO ", "DEBUG"};
  std::fprintf(stderr, "[quake %s] ", tags[static_cast<int>(level)]);
  std::va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace quake::util

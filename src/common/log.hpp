// Minimal leveled logger. Simulation components log with the simulated
// timestamp so traces read like real Spark driver logs. Disabled (kWarn)
// by default so benchmark output stays clean.
#pragma once

#include <sstream>
#include <string>

#include "common/types.hpp"

namespace rupam {

enum class LogLevel : int { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

class Logger {
 public:
  static LogLevel level();
  static void set_level(LogLevel level);

  /// Emit one line: "[ 12.345s] [INFO ] message", to stderr or, while a
  /// LogCapture is alive on the calling thread, to its sink.
  static void write(LogLevel level, SimTime now, const std::string& message);
};

/// While alive, the lines the calling thread logs are appended to `sink`
/// instead of stderr. The sweep orchestrator captures each run's lines
/// and releases them in run order, so a threaded sweep logs the same bytes
/// as a one-thread one.
class LogCapture {
 public:
  explicit LogCapture(std::string& sink);
  ~LogCapture();
  LogCapture(const LogCapture&) = delete;
  LogCapture& operator=(const LogCapture&) = delete;

 private:
  std::string* previous_;
};

namespace log_detail {
template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream oss;
  (oss << ... << args);
  return oss.str();
}
}  // namespace log_detail

#define RUPAM_LOG(lvl_, now_, ...)                                                     \
  do {                                                                                 \
    if (static_cast<int>(lvl_) >= static_cast<int>(::rupam::Logger::level())) {        \
      ::rupam::Logger::write(lvl_, now_, ::rupam::log_detail::concat(__VA_ARGS__));    \
    }                                                                                  \
  } while (0)

#define RUPAM_DEBUG(now, ...) RUPAM_LOG(::rupam::LogLevel::kDebug, now, __VA_ARGS__)
#define RUPAM_INFO(now, ...) RUPAM_LOG(::rupam::LogLevel::kInfo, now, __VA_ARGS__)
#define RUPAM_WARN(now, ...) RUPAM_LOG(::rupam::LogLevel::kWarn, now, __VA_ARGS__)

}  // namespace rupam

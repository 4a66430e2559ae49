#include "common/log.hpp"

#include <atomic>
#include <cstdio>
#include <string>

namespace rupam {
namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};
thread_local std::string* t_sink = nullptr;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?";
}

}  // namespace

LogLevel Logger::level() { return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed)); }

void Logger::set_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void Logger::write(LogLevel level, SimTime now, const std::string& message) {
  if (t_sink == nullptr) {
    std::fprintf(stderr, "[%10.3fs] [%s] %s\n", now, level_name(level), message.c_str());
    return;
  }
  char prefix[64];
  std::snprintf(prefix, sizeof prefix, "[%10.3fs] [%s] ", now, level_name(level));
  t_sink->append(prefix).append(message).push_back('\n');
}

LogCapture::LogCapture(std::string& sink) : previous_(t_sink) { t_sink = &sink; }

LogCapture::~LogCapture() { t_sink = previous_; }

}  // namespace rupam

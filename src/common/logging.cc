#include "common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace gtpq {

namespace {
LogLevel g_level = LogLevel::kInfo;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

void SetLogLevel(LogLevel level) { g_level = level; }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << LevelName(level) << " " << file << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (level_ >= g_level) {
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
  }
}

FatalLogMessage::FatalLogMessage(const char* file, int line,
                                 const char* condition) {
  stream_ << "[FATAL " << file << ":" << line << "] Check failed: "
          << condition << " ";
}

FatalLogMessage::~FatalLogMessage() {
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
  std::abort();
}

}  // namespace internal

}  // namespace gtpq

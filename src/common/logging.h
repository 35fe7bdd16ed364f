#ifndef GTPQ_COMMON_LOGGING_H_
#define GTPQ_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace gtpq {

/// Severity levels for the minimal logger.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Sets the minimum level that is emitted to stderr. Default: kInfo.
void SetLogLevel(LogLevel level);

namespace internal {

/// Stream-style log sink; emits on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();
  std::ostream& stream() { return stream_; }

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Emits the message then aborts; used by GTPQ_CHECK.
class FatalLogMessage {
 public:
  FatalLogMessage(const char* file, int line, const char* condition);
  [[noreturn]] ~FatalLogMessage();
  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

}  // namespace internal

#define GTPQ_LOG(level)                                                   \
  ::gtpq::internal::LogMessage(::gtpq::LogLevel::k##level, __FILE__,      \
                               __LINE__)                                  \
      .stream()

/// Always-on invariant check; logs expression + message and aborts on
/// failure. Used for programming errors, not for user input validation.
#define GTPQ_CHECK(condition)                                             \
  if (!(condition))                                                       \
  ::gtpq::internal::FatalLogMessage(__FILE__, __LINE__, #condition).stream()

#define GTPQ_CHECK_OK(expr)                                  \
  do {                                                       \
    ::gtpq::Status _st = (expr);                             \
    GTPQ_CHECK(_st.ok()) << _st.ToString();                  \
  } while (0)

#ifndef NDEBUG
#define GTPQ_DCHECK(condition) GTPQ_CHECK(condition)
#else
#define GTPQ_DCHECK(condition) \
  if (false) ::gtpq::internal::FatalLogMessage(__FILE__, __LINE__, "").stream()
#endif

}  // namespace gtpq

#endif  // GTPQ_COMMON_LOGGING_H_

#ifndef GTPQ_OBS_TRACE_H_
#define GTPQ_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace gtpq {
namespace obs {

/// Request tracing across the serving stack. A trace id is minted by
/// the first hop (gteactl query --trace, or a test), carried in the
/// header of every gtpq-wire request frame (net/wire.h), and installed
/// thread-locally while a request is being served — so code deep in
/// the engine (the cluster router's probes, most importantly) can
/// attach child spans, and send traced frames, without any parameter
/// plumbing. Completed
/// spans land in a fixed-size recorder ring and export as Chrome
/// trace-event JSON (chrome://tracing, Perfetto).

/// Microseconds since process start on the steady clock — the shared
/// timebase every span's ts/dur is expressed in.
double NowMicros();

/// Non-zero, process-unique-enough trace id (clock + counter mix).
uint64_t NewTraceId();

/// The ambient trace of the work this thread is doing right now.
/// trace_id == 0 means "not traced" and makes every span call a no-op.
struct TraceContext {
  uint64_t trace_id = 0;
  /// Span id the next child span should parent under.
  uint64_t parent_span = 0;

  bool active() const { return trace_id != 0; }
};

TraceContext CurrentTrace();

/// Installs `context` for the current thread and restores the previous
/// context on destruction; worker-pool tasks wrap each unit of work so
/// contexts never leak across queued tasks.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext context);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

/// Times the enclosing scope as one span of the thread's current
/// trace: allocates the span id, installs it as the parent of spans
/// opened underneath (a GTEA stage parents the cluster router's shard
/// probes this way), and records the span on destruction. With no
/// active trace it reads the thread-local and does nothing else.
/// `name` must outlive the scope (span names are constants).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceContext saved_;
  const char* name_;
  uint64_t span_id_ = 0;
  double start_us_ = 0;
};

/// One completed span.
struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span = 0;
  std::string name;
  double start_us = 0;  // NowMicros() timebase
  double dur_us = 0;
  uint32_t tid = 0;  // small per-thread ordinal, for trace-row grouping
};

/// One process's contribution to a stitched multi-process trace.
struct ProcessSpans {
  /// Perfetto process label, e.g. "router" or "shard 0 (127.0.0.1:7501)".
  std::string process_name;
  uint32_t pid = 1;
  std::vector<Span> spans;
};

/// Renders span groups from several processes as ONE Chrome trace-event
/// JSON document: a process_name "M" metadata event per group, then the
/// group's spans as "X" complete events under that pid. Parent links
/// (span ids in args) hold across processes because span ids are
/// randomly seeded per process and the parent id crosses the wire with
/// the request. Timestamps stay in each process's own NowMicros
/// timebase — steady clocks are not aligned across machines — so the
/// stitched view reads as per-process tracks of one trace.
std::string RenderChromeTrace(const std::vector<ProcessSpans>& processes);

/// Process-wide ring of the most recent completed spans. Writers take
/// one short mutex-protected append (tracing is opt-in per request, so
/// the lock is cold on untraced traffic); readers copy the ring.
class TraceRecorder {
 public:
  /// Span ids start at a random 64-bit seed so rings pulled from
  /// several processes can be stitched into one trace without id
  /// collisions (every process used to count from 1).
  TraceRecorder();

  static TraceRecorder& Global();

  /// Allocates a span id to hand to children before the span itself
  /// completes (a ScopedSpan or a router probe span parents spans
  /// recorded mid-flight).
  uint64_t NewSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records a completed span under a pre-allocated id. No-op when
  /// trace_id is 0.
  void Record(uint64_t trace_id, uint64_t span_id, uint64_t parent_span,
              std::string_view name, double start_us, double dur_us);

  /// Most recent spans, oldest first.
  std::vector<Span> Spans() const;
  /// Spans of one trace, oldest first.
  std::vector<Span> SpansForTrace(uint64_t trace_id) const;
  /// Spans recorded since process start (ring overwrites do not reset
  /// this).
  uint64_t total_recorded() const {
    return total_.load(std::memory_order_relaxed);
  }
  void Clear();

  /// Chrome trace-event JSON ("X" complete events; ts/dur in
  /// microseconds, trace/span/parent ids in args).
  std::string RenderChromeTrace() const;

  static constexpr size_t kCapacity = 4096;

 private:
  mutable std::mutex mu_;
  std::vector<Span> ring_;
  size_t next_ = 0;  // ring cursor once full
  std::atomic<uint64_t> total_{0};
  std::atomic<uint64_t> next_span_id_;
};

}  // namespace obs
}  // namespace gtpq

#endif  // GTPQ_OBS_TRACE_H_

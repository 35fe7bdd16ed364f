#include "obs/trace.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace gtpq {
namespace obs {

namespace {

std::chrono::steady_clock::time_point ProcessEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

// Touch the epoch at static-init time so NowMicros is measured from
// (roughly) process start even when the first span is recorded late.
[[maybe_unused]] const auto kEpochInit = ProcessEpoch();

thread_local TraceContext g_current_trace;

uint32_t ThreadOrdinal() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

}  // namespace

double NowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - ProcessEpoch())
      .count();
}

uint64_t NewTraceId() {
  static std::atomic<uint64_t> counter{1};
  const uint64_t mix =
      static_cast<uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count()) ^
      (counter.fetch_add(1, std::memory_order_relaxed) << 48);
  // SplitMix64 finalizer: spreads the clock bits so concurrent minters
  // do not collide on low-resolution clocks; never returns 0.
  uint64_t z = mix + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

TraceContext CurrentTrace() { return g_current_trace; }

ScopedTraceContext::ScopedTraceContext(TraceContext context)
    : saved_(g_current_trace) {
  g_current_trace = context;
}

ScopedTraceContext::~ScopedTraceContext() { g_current_trace = saved_; }

ScopedSpan::ScopedSpan(const char* name)
    : saved_(g_current_trace), name_(name) {
  if (!saved_.active()) return;
  span_id_ = TraceRecorder::Global().NewSpanId();
  start_us_ = NowMicros();
  g_current_trace.parent_span = span_id_;
}

ScopedSpan::~ScopedSpan() {
  if (!saved_.active()) return;
  g_current_trace = saved_;
  TraceRecorder::Global().Record(saved_.trace_id, span_id_,
                                 saved_.parent_span, name_, start_us_,
                                 NowMicros() - start_us_);
}

TraceRecorder::TraceRecorder() : next_span_id_(NewTraceId() | 1) {}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* instance = new TraceRecorder();
  return *instance;
}

void TraceRecorder::Record(uint64_t trace_id, uint64_t span_id,
                           uint64_t parent_span, std::string_view name,
                           double start_us, double dur_us) {
  if (trace_id == 0) return;
  Span span;
  span.trace_id = trace_id;
  span.span_id = span_id;
  span.parent_span = parent_span;
  span.name.assign(name);
  span.start_us = start_us;
  span.dur_us = dur_us;
  span.tid = ThreadOrdinal();
  total_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < kCapacity) {
    ring_.push_back(std::move(span));
  } else {
    ring_[next_] = std::move(span);
    next_ = (next_ + 1) % kCapacity;
  }
}

std::vector<Span> TraceRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.reserve(ring_.size());
  // Oldest first: [next_, end) then [0, next_) once the ring wrapped.
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<Span> TraceRecorder::SpansForTrace(uint64_t trace_id) const {
  std::vector<Span> out;
  for (Span& span : Spans()) {
    if (span.trace_id == trace_id) out.push_back(std::move(span));
  }
  return out;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
}

namespace {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string RenderChromeTrace(const std::vector<ProcessSpans>& processes) {
  std::string out = "{\"traceEvents\":[";
  char buf[352];
  bool first = true;
  for (const ProcessSpans& proc : processes) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",", proc.pid,
                  JsonEscape(proc.process_name).c_str());
    first = false;
    out += buf;
    for (const Span& span : proc.spans) {
      // Span names are internal constants ("dispatch", "probe shard=2"),
      // never user input, so plain %s is JSON-safe here.
      std::snprintf(
          buf, sizeof(buf),
          ",{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace_id\":\"%016" PRIx64
          "\",\"span_id\":\"%" PRIx64 "\",\"parent_span\":\"%" PRIx64
          "\"}}",
          span.name.c_str(), proc.pid, span.tid, span.start_us,
          span.dur_us, span.trace_id, span.span_id, span.parent_span);
      out += buf;
    }
  }
  out += "]}";
  return out;
}

std::string TraceRecorder::RenderChromeTrace() const {
  return gtpq::obs::RenderChromeTrace({{"gtpq", 1, Spans()}});
}

}  // namespace obs
}  // namespace gtpq

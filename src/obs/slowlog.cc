#include "obs/slowlog.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/trace.h"

namespace gtpq {
namespace obs {

SlowQueryLog& SlowQueryLog::Global() {
  static SlowQueryLog* instance = new SlowQueryLog();
  return *instance;
}

void SlowQueryLog::Record(SlowQueryEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.size() < kCapacity) {
    entries_.push_back(std::move(entry));
    if (entries_.size() == kCapacity) {
      const auto min_it = std::min_element(
          entries_.begin(), entries_.end(),
          [](const SlowQueryEntry& a, const SlowQueryEntry& b) {
            return a.wall_ms < b.wall_ms;
          });
      admit_floor_.store(min_it->wall_ms, std::memory_order_relaxed);
    }
    return;
  }
  auto min_it = std::min_element(
      entries_.begin(), entries_.end(),
      [](const SlowQueryEntry& a, const SlowQueryEntry& b) {
        return a.wall_ms < b.wall_ms;
      });
  if (entry.wall_ms <= min_it->wall_ms) return;  // admission raced
  *min_it = std::move(entry);
  min_it = std::min_element(
      entries_.begin(), entries_.end(),
      [](const SlowQueryEntry& a, const SlowQueryEntry& b) {
        return a.wall_ms < b.wall_ms;
      });
  admit_floor_.store(min_it->wall_ms, std::memory_order_relaxed);
}

std::vector<SlowQueryEntry> SlowQueryLog::Entries() const {
  std::vector<SlowQueryEntry> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = entries_;
  }
  std::sort(out.begin(), out.end(),
            [](const SlowQueryEntry& a, const SlowQueryEntry& b) {
              return a.wall_ms > b.wall_ms;
            });
  return out;
}

void SlowQueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  admit_floor_.store(-1.0, std::memory_order_relaxed);
}

std::string SlowQueryLog::Render() const {
  const std::vector<SlowQueryEntry> entries = Entries();
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "slow query log: %zu entr%s (worst first)\n",
                entries.size(), entries.size() == 1 ? "y" : "ies");
  out += buf;
  for (size_t i = 0; i < entries.size(); ++i) {
    const SlowQueryEntry& e = entries[i];
    std::snprintf(buf, sizeof(buf),
                  "#%zu  wall_ms=%.3f  epoch=%" PRIu64 "  trace=%016" PRIx64
                  "\n",
                  i + 1, e.wall_ms, e.epoch, e.trace_id);
    out += buf;
    out += "  query: " + e.query + "\n";
    std::snprintf(buf, sizeof(buf),
                  "  input_nodes=%" PRIu64 " index_lookups=%" PRIu64
                  " intermediate=%" PRIu64 " join_ops=%" PRIu64 "\n",
                  e.stats.input_nodes, e.stats.index_lookups,
                  e.stats.intermediate_size, e.stats.join_ops);
    out += buf;
    out += "  ";
    for (size_t s = 0; s < kNumStages; ++s) {
      std::snprintf(buf, sizeof(buf), "%s=%.3fms ",
                    StageName(static_cast<Stage>(s)), e.stats.stage_ms[s]);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "total=%.3fms\n", e.stats.total_ms);
    out += buf;
    if (e.trace_id != 0) {
      const std::vector<Span> spans =
          TraceRecorder::Global().SpansForTrace(e.trace_id);
      for (const Span& span : spans) {
        std::snprintf(buf, sizeof(buf),
                      "  span %-24s start=%.1fus dur=%.1fus id=%" PRIx64
                      " parent=%" PRIx64 "\n",
                      span.name.c_str(), span.start_us, span.dur_us,
                      span.span_id, span.parent_span);
        out += buf;
      }
    }
  }
  return out;
}

}  // namespace obs
}  // namespace gtpq

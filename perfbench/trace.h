// Bench-side tracing: an in-memory span recorder, a timing/counting
// ReachabilityOracle decorator, and the GTEA stage pipeline replayed
// with a span around every stage. All spans are recorded from the
// benchmark's own files around calls into the library's public
// functions; nothing inside the library is instrumented.
#ifndef GTPQ_PERFBENCH_TRACE_H_
#define GTPQ_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/eval_types.h"
#include "graph/data_graph.h"
#include "query/gtpq.h"
#include "reachability/reachability_index.h"

namespace perfbench {

/// Spans (name, start, end, parent) kept in memory. Names are string
/// literals interned by pointer, so opening a span on a hot path costs
/// a clock read and a short scan.
class SpanRecorder {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  struct Span {
    uint32_t name = 0;
    uint32_t parent = kNoParent;
    double start_us = 0;
    double end_us = 0;
  };

  SpanRecorder();

  uint32_t Open(const char* name);
  void Close(uint32_t id);

  /// Adds each recorded span's self time (duration minus the part its
  /// children cover) to (*self_us)[span name].
  void AccumulateSelf(std::map<std::string, double>* self_us) const;
  /// Adds each recorded span's full duration to (*total_us)[span name].
  void AccumulateTotal(std::map<std::string, double>* total_us) const;
  /// Total duration of the root spans named `name`.
  double RootTotalUs(const char* name) const;

  /// Drops the current spans, first copying them into the export
  /// buffer when `keep` and it has room.
  void Clear(bool keep);

  /// Writes the export buffer as Chrome trace-event JSON.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  uint32_t Intern(const char* name);

  double origin_s_;
  std::vector<const char*> names_;
  std::vector<Span> spans_;
  std::vector<Span> kept_;
  uint32_t open_ = kNoParent;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder->Open(name)) {}
  ~ScopedSpan() { recorder_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  uint32_t id_;
};

/// Decorator that records one "reach.*" span per oracle API call,
/// counts the calls, and mirrors the inner oracle's IndexStats into its
/// own slot after each call. Set summaries are the inner oracle's own,
/// so every call reaches the inner backend's native implementation.
class TracedOracle final : public gtpq::ReachabilityOracle {
 public:
  TracedOracle(const gtpq::ReachabilityOracle& inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  std::string_view name() const override { return inner_.name(); }
  bool Reaches(gtpq::NodeId from, gtpq::NodeId to) const override;
  std::unique_ptr<SetSummary> SummarizeTargets(
      std::span<const gtpq::NodeId> members) const override;
  std::unique_ptr<SetSummary> SummarizeSources(
      std::span<const gtpq::NodeId> members) const override;
  bool ReachesSet(gtpq::NodeId from, const SetSummary& targets) const override;
  bool SetReaches(const SetSummary& sources, gtpq::NodeId to) const override;
  void ReachesSetsBatch(std::span<const gtpq::NodeId> sources,
                        std::span<const SetSummary* const> target_sets,
                        std::vector<std::vector<char>>* out) const override;
  void SetReachesBatch(const SetSummary& sources,
                       std::span<const gtpq::NodeId> targets,
                       std::vector<char>* out) const override;
  std::unique_ptr<SetSummary> PrepareSuccessorTargets(
      std::span<const gtpq::NodeId> targets) const override;
  void SuccessorsAmong(gtpq::NodeId from, const SetSummary& targets,
                       std::vector<uint32_t>* out) const override;

  const gtpq::ReachabilityOracle& inner() const { return inner_; }
  uint64_t calls() const { return calls_; }

 private:
  class Call;

  const gtpq::ReachabilityOracle& inner_;
  SpanRecorder* recorder_;
  mutable uint64_t calls_ = 0;
};

/// Work counts of one replayed query (summed over query nodes).
struct StageCounts {
  uint64_t candidates = 0;
  uint64_t after_prune_down = 0;
  uint64_t after_prune_up = 0;
  uint64_t matching_graph_size = 0;
  uint64_t result_tuples = 0;

  void Add(const StageCounts& o) {
    candidates += o.candidates;
    after_prune_down += o.after_prune_down;
    after_prune_up += o.after_prune_up;
    matching_graph_size += o.matching_graph_size;
    result_tuples += o.result_tuples;
  }
};

/// The six GTEA stages called in GteaEngine::Evaluate order, serially,
/// with a "core.<stage>" span around each. Returns the same answer as
/// GteaEngine::Evaluate with the same options.
gtpq::QueryResult ReplayStages(const gtpq::DataGraph& g,
                               const gtpq::ReachabilityOracle& oracle,
                               const gtpq::Gtpq& q,
                               const gtpq::GteaOptions& options,
                               SpanRecorder* recorder, StageCounts* counts);

/// Layer name of a span: the part of its name before the first '.'.
std::string LayerOf(const std::string& span_name);

}  // namespace perfbench

#endif  // GTPQ_PERFBENCH_TRACE_H_

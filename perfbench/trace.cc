#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "bench.h"
#include "core/enumerate.h"
#include "core/match.h"
#include "core/matching_graph.h"
#include "core/parallel_eval.h"
#include "core/prune.h"

namespace perfbench {

namespace {
// Bounds the exported trace file; the self-time sums cover every span.
constexpr size_t kMaxKeptSpans = 200000;
}  // namespace

SpanRecorder::SpanRecorder() : origin_s_(NowSeconds()) {}

uint32_t SpanRecorder::Intern(const char* name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

uint32_t SpanRecorder::Open(const char* name) {
  Span span;
  span.name = Intern(name);
  span.parent = open_;
  span.start_us = (NowSeconds() - origin_s_) * 1e6;
  spans_.push_back(span);
  open_ = static_cast<uint32_t>(spans_.size() - 1);
  return open_;
}

void SpanRecorder::Close(uint32_t id) {
  spans_[id].end_us = (NowSeconds() - origin_s_) * 1e6;
  open_ = spans_[id].parent;
}

void SpanRecorder::AccumulateSelf(
    std::map<std::string, double>* self_us) const {
  // Children of one parent never overlap (every traced call is serial),
  // so the covered part of a span is the sum of its children.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      covered[span.parent] += span.end_us - span.start_us;
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    (*self_us)[names_[span.name]] +=
        span.end_us - span.start_us - covered[i];
  }
}

void SpanRecorder::AccumulateTotal(
    std::map<std::string, double>* total_us) const {
  for (const Span& span : spans_) {
    (*total_us)[names_[span.name]] += span.end_us - span.start_us;
  }
}

double SpanRecorder::RootTotalUs(const char* name) const {
  double total = 0;
  for (const Span& span : spans_) {
    if (span.parent == kNoParent && names_[span.name] == name) {
      total += span.end_us - span.start_us;
    }
  }
  return total;
}

void SpanRecorder::Clear(bool keep) {
  if (keep && kept_.size() + spans_.size() <= kMaxKeptSpans) {
    const uint32_t base = static_cast<uint32_t>(kept_.size());
    for (Span span : spans_) {
      if (span.parent != kNoParent) span.parent += base;
      kept_.push_back(span);
    }
  }
  spans_.clear();
  open_ = kNoParent;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Span& span = kept_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", names_[span.name], span.start_us,
                 span.end_us - span.start_us, i,
                 span.parent == kNoParent
                     ? -1LL
                     : static_cast<long long>(span.parent));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

// --- TracedOracle -------------------------------------------------------

class TracedOracle::Call {
 public:
  Call(const TracedOracle& oracle, const char* name)
      : oracle_(oracle), span_(oracle.recorder_, name) {}
  ~Call() {
    ++oracle_.calls_;
    oracle_.stats() = oracle_.inner_.stats();
  }
  Call(const Call&) = delete;
  Call& operator=(const Call&) = delete;

 private:
  const TracedOracle& oracle_;
  ScopedSpan span_;
};

bool TracedOracle::Reaches(gtpq::NodeId from, gtpq::NodeId to) const {
  Call call(*this, "reach.Reaches");
  return inner_.Reaches(from, to);
}

std::unique_ptr<gtpq::ReachabilityOracle::SetSummary>
TracedOracle::SummarizeTargets(std::span<const gtpq::NodeId> members) const {
  Call call(*this, "reach.SummarizeTargets");
  return inner_.SummarizeTargets(members);
}

std::unique_ptr<gtpq::ReachabilityOracle::SetSummary>
TracedOracle::SummarizeSources(std::span<const gtpq::NodeId> members) const {
  Call call(*this, "reach.SummarizeSources");
  return inner_.SummarizeSources(members);
}

bool TracedOracle::ReachesSet(gtpq::NodeId from,
                              const SetSummary& targets) const {
  Call call(*this, "reach.ReachesSet");
  return inner_.ReachesSet(from, targets);
}

bool TracedOracle::SetReaches(const SetSummary& sources,
                              gtpq::NodeId to) const {
  Call call(*this, "reach.SetReaches");
  return inner_.SetReaches(sources, to);
}

void TracedOracle::ReachesSetsBatch(
    std::span<const gtpq::NodeId> sources,
    std::span<const SetSummary* const> target_sets,
    std::vector<std::vector<char>>* out) const {
  Call call(*this, "reach.ReachesSetsBatch");
  inner_.ReachesSetsBatch(sources, target_sets, out);
}

void TracedOracle::SetReachesBatch(const SetSummary& sources,
                                   std::span<const gtpq::NodeId> targets,
                                   std::vector<char>* out) const {
  Call call(*this, "reach.SetReachesBatch");
  inner_.SetReachesBatch(sources, targets, out);
}

std::unique_ptr<gtpq::ReachabilityOracle::SetSummary>
TracedOracle::PrepareSuccessorTargets(
    std::span<const gtpq::NodeId> targets) const {
  Call call(*this, "reach.PrepareSuccessorTargets");
  return inner_.PrepareSuccessorTargets(targets);
}

void TracedOracle::SuccessorsAmong(gtpq::NodeId from,
                                   const SetSummary& targets,
                                   std::vector<uint32_t>* out) const {
  Call call(*this, "reach.SuccessorsAmong");
  inner_.SuccessorsAmong(from, targets, out);
}

// --- stage replay -------------------------------------------------------

namespace {
uint64_t TotalCandidates(const std::vector<std::vector<gtpq::NodeId>>& mat) {
  uint64_t total = 0;
  for (const auto& m : mat) total += m.size();
  return total;
}
}  // namespace

gtpq::QueryResult ReplayStages(const gtpq::DataGraph& g,
                               const gtpq::ReachabilityOracle& oracle,
                               const gtpq::Gtpq& q,
                               const gtpq::GteaOptions& options,
                               SpanRecorder* recorder, StageCounts* counts) {
  gtpq::EngineStats stats;
  gtpq::ParallelEvalContext ctx;  // one lane: the serving configuration

  gtpq::QueryResult empty;
  empty.output_nodes = q.outputs();
  std::sort(empty.output_nodes.begin(), empty.output_nodes.end());

  std::vector<std::vector<gtpq::NodeId>> mat;
  {
    ScopedSpan span(recorder, "core.match");
    mat = gtpq::ComputeCandidates(g, q, &stats);
  }
  counts->candidates += TotalCandidates(mat);
  {
    ScopedSpan span(recorder, "core.prune_down");
    gtpq::PruneDownward(g, oracle, q, &mat, &ctx, &stats);
  }
  counts->after_prune_down += TotalCandidates(mat);
  if (mat[q.root()].empty()) return empty;

  std::vector<char> in_prime;
  {
    ScopedSpan span(recorder, "core.prime");
    in_prime = gtpq::ComputePrimeSubtree(q);
  }
  bool nonempty = true;
  {
    ScopedSpan span(recorder, "core.prune_up");
    nonempty =
        gtpq::PruneUpward(g, oracle, q, in_prime, &mat, options, &ctx, &stats);
  }
  counts->after_prune_up += TotalCandidates(mat);
  if (!nonempty) return empty;

  std::optional<gtpq::MatchingGraph> mg;
  {
    ScopedSpan span(recorder, "core.matching_graph");
    mg.emplace(gtpq::BuildMatchingGraph(g, oracle, q, in_prime, mat, options,
                                        &ctx, &stats));
    nonempty = gtpq::ReduceMatchingGraph(q, &*mg, &stats);
  }
  counts->matching_graph_size += mg->TotalNodes() + mg->TotalEdges();
  if (!nonempty) return empty;

  gtpq::QueryResult result;
  {
    ScopedSpan span(recorder, "core.enumerate");
    result = gtpq::EnumerateResults(q, *mg, options, &ctx, &stats);
  }
  counts->result_tuples += result.tuples.size();
  return result;
}

}  // namespace perfbench

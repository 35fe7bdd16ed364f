#include "core/gtea.h"

#include <algorithm>
#include <array>

#include "common/timer.h"
#include "core/enumerate.h"
#include "core/match.h"
#include "core/matching_graph.h"
#include "core/parallel_eval.h"
#include "core/prune.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gtpq {

namespace {
std::string EngineName(const ReachabilityOracle& idx) {
  return "gtea[" + std::string(idx.name()) + "]";
}

/// gtpq_stage_latency_us{stage=<StageName>}, resolved once.
obs::Histogram* StageLatency(Stage stage) {
  static const std::array<obs::Histogram*, kNumStages> histograms = [] {
    std::array<obs::Histogram*, kNumStages> out{};
    for (size_t s = 0; s < kNumStages; ++s) {
      const char* stage = StageName(static_cast<Stage>(s));
      out[s] = obs::Registry::Global().GetHistogram(
          obs::LabeledName("gtpq_stage_latency_us", {{"stage", stage}}));
    }
    return out;
  }();
  return histograms[static_cast<size_t>(stage)];
}
}  // namespace

GteaEngine::GteaEngine(const DataGraph& g, ReachabilityBackend backend)
    : g_(g), idx_(MakeReachabilityIndex(backend, g.graph())) {
  name_ = EngineName(*idx_);
}

GteaEngine::GteaEngine(const DataGraph& g,
                       std::shared_ptr<const ReachabilityOracle> idx)
    : g_(g), idx_(std::move(idx)), name_(EngineName(*idx_)) {}

QueryResult GteaEngine::Evaluate(const Gtpq& q, const GteaOptions& options) {
  stats_.Reset();
  idx_->stats().Reset();
  Timer total;

  ParallelEvalContext ctx;
  auto finish = [&](QueryResult result) {
    stats_.index_lookups = idx_->stats().elements_looked_up;
    stats_.total_ms = total.ElapsedMillis();
    return result;
  };
  // Times one stage into stats_.stage_ms and the stage's latency
  // histogram, and records it as a span of the thread's trace, so spans
  // the stage opens (shard probes) nest under it.
  auto run_stage = [this](Stage stage, auto&& body) {
    obs::ScopedSpan span(StageName(stage));
    Timer timer;
    body();
    const double ms = timer.ElapsedMillis();
    stats_.ms(stage) = ms;
    StageLatency(stage)->Record(static_cast<uint64_t>(ms * 1000.0));
  };

  QueryResult empty;
  empty.output_nodes = q.outputs();
  std::sort(empty.output_nodes.begin(), empty.output_nodes.end());

  std::vector<std::vector<NodeId>> mat;
  run_stage(Stage::kMatch, [&] { mat = ComputeCandidates(g_, q, &stats_); });
  run_stage(Stage::kPruneDown, [&] {
    PruneDownward(g_, *idx_, q, &mat, &ctx, &stats_);
  });
  if (mat[q.root()].empty()) return finish(std::move(empty));

  std::vector<char> in_prime;
  run_stage(Stage::kPrime, [&] { in_prime = ComputePrimeSubtree(q); });

  bool nonempty = true;
  run_stage(Stage::kPruneUp, [&] {
    if (options.upward_pruning) {
      nonempty =
          PruneUpward(g_, *idx_, q, in_prime, &mat, options, &ctx, &stats_);
    }
  });
  if (!nonempty) return finish(std::move(empty));

  MatchingGraph mg;
  run_stage(Stage::kMatchingGraph, [&] {
    mg = BuildMatchingGraph(g_, *idx_, q, in_prime, mat, options, &ctx,
                            &stats_);
    nonempty = ReduceMatchingGraph(q, &mg, &stats_);
  });
  if (!nonempty) return finish(std::move(empty));

  QueryResult result;
  run_stage(Stage::kEnumerate, [&] {
    result = EnumerateResults(q, mg, options, &ctx, &stats_);
  });
  return finish(std::move(result));
}

}  // namespace gtpq

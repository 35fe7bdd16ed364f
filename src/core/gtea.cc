#include "core/gtea.h"

#include <algorithm>

#include "common/timer.h"
#include "core/enumerate.h"
#include "core/match.h"
#include "core/matching_graph.h"
#include "core/parallel_eval.h"
#include "core/prune.h"

namespace gtpq {

namespace {
std::string EngineName(const ReachabilityOracle& idx) {
  return "gtea[" + std::string(idx.name()) + "]";
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
  auto finish = [&] {
    stats_.index_lookups = idx_->stats().elements_looked_up;
    stats_.total_ms = total.ElapsedMillis();
  };

  QueryResult empty;
  empty.output_nodes = q.outputs();
  std::sort(empty.output_nodes.begin(), empty.output_nodes.end());

  Timer t;
  auto mat = ComputeCandidates(g_, q, &stats_);
  stats_.match_ms = t.ElapsedMillis();

  t.Restart();
  PruneDownward(g_, *idx_, q, &mat, &ctx, &stats_);
  stats_.prune_down_ms = t.ElapsedMillis();
  if (mat[q.root()].empty()) {
    finish();
    return empty;
  }

  t.Restart();
  auto in_prime = ComputePrimeSubtree(q);
  stats_.prime_ms = t.ElapsedMillis();

  t.Restart();
  bool nonempty = true;
  if (options.upward_pruning) {
    nonempty =
        PruneUpward(g_, *idx_, q, in_prime, &mat, options, &ctx, &stats_);
  }
  stats_.prune_up_ms = t.ElapsedMillis();
  if (!nonempty) {
    finish();
    return empty;
  }

  t.Restart();
  MatchingGraph mg =
      BuildMatchingGraph(g_, *idx_, q, in_prime, mat, options, &ctx, &stats_);
  nonempty = ReduceMatchingGraph(q, &mg, &stats_);
  stats_.matching_graph_ms = t.ElapsedMillis();
  if (!nonempty) {
    finish();
    return empty;
  }

  t.Restart();
  QueryResult result = EnumerateResults(q, mg, options, &ctx, &stats_);
  stats_.enumerate_ms = t.ElapsedMillis();

  finish();
  return result;
}

}  // namespace gtpq

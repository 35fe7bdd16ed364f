#include "baselines/engines.h"

#include <algorithm>
#include <utility>

#include "baselines/decompose.h"
#include "baselines/naive.h"
#include "baselines/twig2stack.h"
#include "baselines/twig_on_graph.h"
#include "baselines/twigstack.h"
#include "baselines/twigstackd.h"
#include "common/timer.h"

namespace gtpq {

namespace {

// Resolves cross-node names (IDREF targets) to query node ids; used to
// decide where a twig query is decomposed for graph data.
std::vector<QNodeId> ResolveCrossIds(
    const Gtpq& q, const std::vector<std::string>& names) {
  std::vector<QNodeId> out;
  for (QNodeId u = 0; u < q.NumNodes(); ++u) {
    for (const auto& name : names) {
      if (q.node(u).name == name) out.push_back(u);
    }
  }
  return out;
}

// The baseline algorithms always materialize the full answer; honor
// the one semantic option of the common interface by truncating it, so
// Evaluate(q, {.result_limit = k}) behaves uniformly across engines.
void ApplyResultLimit(const GteaOptions& options, QueryResult* result) {
  if (options.result_limit > 0 &&
      result->tuples.size() > options.result_limit) {
    result->tuples.resize(options.result_limit);
  }
}

}  // namespace

// --------------------------------------------------------------- naive

BruteForceEngine::BruteForceEngine(const DataGraph& g)
    : BruteForceEngine(g, std::make_shared<const TransitiveClosure>(
                              TransitiveClosure::Build(g.graph()))) {}

BruteForceEngine::BruteForceEngine(
    const DataGraph& g, std::shared_ptr<const TransitiveClosure> tc)
    : g_(g), tc_(std::move(tc)) {}

QueryResult BruteForceEngine::Evaluate(const Gtpq& q,
                                       const GteaOptions& options) {
  stats_.Reset();
  tc_->stats().Reset();
  Timer total;
  QueryResult result = EvaluateBruteForce(g_, *tc_, q);
  ApplyResultLimit(options, &result);
  stats_.index_lookups = tc_->stats().elements_looked_up;
  stats_.total_ms = total.ElapsedMillis();
  return result;
}

// ----------------------------------------------------- twig(2)stack

TwigStackEngine::TwigStackEngine(const DataGraph& g, bool use_twig2stack,
                                 std::vector<std::string> cross_names,
                                 std::shared_ptr<const RegionEncoding> enc)
    : g_(g),
      twig2stack_(use_twig2stack),
      cross_names_(std::move(cross_names)),
      enc_(std::move(enc)) {
  if (enc_ == nullptr) {
    enc_ = std::make_shared<const RegionEncoding>(BuildRegionEncoding(g));
  }
}

QueryResult TwigStackEngine::Evaluate(const Gtpq& q,
                                      const GteaOptions& options) {
  QueryResult result = EvaluateWithCross(q, ResolveCrossIds(q, cross_names_));
  ApplyResultLimit(options, &result);
  return result;
}

QueryResult TwigStackEngine::EvaluateWithCross(
    const Gtpq& q, const std::vector<QNodeId>& cross) {
  stats_.Reset();
  Timer total;
  QueryResult result = EvaluateTwigOnGraph(
      g_, q, cross,
      [this](const Gtpq& frag) {
        return twig2stack_
                   ? EvaluateTwig2Stack(g_, *enc_, frag, &stats_)
                   : EvaluateTwigStack(g_, *enc_, frag, &stats_);
      },
      &stats_);
  stats_.total_ms = total.ElapsedMillis();
  return result;
}

// ------------------------------------------------------- twigstackd

TwigStackDEngine::TwigStackDEngine(const DataGraph& g)
    : TwigStackDEngine(
          g, std::make_shared<const Sspi>(Sspi::Build(g.graph()))) {}

TwigStackDEngine::TwigStackDEngine(const DataGraph& g,
                                   std::shared_ptr<const Sspi> sspi)
    : g_(g), sspi_(std::move(sspi)) {}

QueryResult TwigStackDEngine::Evaluate(const Gtpq& q,
                                       const GteaOptions& options) {
  stats_.Reset();
  Timer total;
  // EvaluateTwigStackD resets the SSPI counters itself and accumulates
  // them into stats_.index_lookups.
  QueryResult result = EvaluateTwigStackD(g_, *sspi_, q, &stats_);
  ApplyResultLimit(options, &result);
  stats_.total_ms = total.ElapsedMillis();
  return result;
}

// ----------------------------------------------------------- hgjoin

HgJoinEngine::HgJoinEngine(const DataGraph& g, bool graph_intermediates)
    : HgJoinEngine(g, graph_intermediates,
                   std::make_shared<const IntervalIndex>(
                       IntervalIndex::Build(g.graph()))) {}

HgJoinEngine::HgJoinEngine(const DataGraph& g, bool graph_intermediates,
                           std::shared_ptr<const IntervalIndex> idx)
    : g_(g), idx_(std::move(idx)) {
  options_.graph_intermediates = graph_intermediates;
}

QueryResult HgJoinEngine::Evaluate(const Gtpq& q,
                                   const GteaOptions& options) {
  stats_.Reset();
  report_ = HgJoinReport{};
  Timer total;
  QueryResult result =
      EvaluateHgJoin(g_, *idx_, q, options_, &stats_, &report_);
  ApplyResultLimit(options, &result);
  stats_.total_ms = total.ElapsedMillis();
  return result;
}

// -------------------------------------------------------- decompose

DecomposeEngine::DecomposeEngine(std::shared_ptr<Evaluator> inner)
    : inner_(std::move(inner)),
      name_("decompose[" + std::string(inner_->name()) + "]") {}

QueryResult DecomposeEngine::Evaluate(const Gtpq& q,
                                      const GteaOptions& options) {
  stats_.Reset();
  last_status_ = Status::OK();
  Timer total;
  // Conjunctive pieces must be complete: unions and negation
  // differences over truncated piece answers would be wrong, so the
  // limit applies only to the merged result.
  GteaOptions inner_options = options;
  inner_options.result_limit = 0;
  auto result = EvaluateByDecomposition(
      q,
      [this, &inner_options](const Gtpq& conj) {
        QueryResult r = inner_->Evaluate(conj, inner_options);
        stats_ += inner_->stats();
        return r;
      },
      &stats_);
  stats_.total_ms = total.ElapsedMillis();
  if (!result.ok()) {
    last_status_ = result.status();
    QueryResult empty;
    empty.output_nodes = q.outputs();
    std::sort(empty.output_nodes.begin(), empty.output_nodes.end());
    return empty;
  }
  QueryResult merged = result.TakeValue();
  ApplyResultLimit(options, &merged);
  return merged;
}

}  // namespace gtpq

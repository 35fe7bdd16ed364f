#ifndef GTPQ_BASELINES_ENGINES_H_
#define GTPQ_BASELINES_ENGINES_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/hgjoin.h"
#include "baselines/tree_encoding.h"
#include "common/status.h"
#include "core/evaluator.h"
#include "graph/data_graph.h"
#include "reachability/interval_index.h"
#include "reachability/sspi.h"
#include "reachability/transitive_closure.h"

namespace gtpq {

/// Brute-force evaluation over the materialized transitive closure —
/// the independent correctness oracle (src/baselines/naive.h) behind
/// the common Evaluator seam.
class BruteForceEngine : public Evaluator {
 public:
  explicit BruteForceEngine(const DataGraph& g);
  BruteForceEngine(const DataGraph& g,
                   std::shared_ptr<const TransitiveClosure> tc);

  std::string_view name() const override { return "naive"; }
  QueryResult Evaluate(const Gtpq& q,
                       const GteaOptions& options = {}) override;
  const EngineStats& stats() const override { return stats_; }
  const TransitiveClosure& closure() const { return *tc_; }

 private:
  const DataGraph& g_;
  std::shared_ptr<const TransitiveClosure> tc_;
  EngineStats stats_;
};

/// TwigStack / Twig2Stack over the spanning tree, lifted to graphs by
/// decomposing at IDREF-style cross edges (twig_on_graph.h). Which
/// query nodes root non-initial fragments is resolved per query from
/// `cross_names` (empty = evaluate against the tree directly).
class TwigStackEngine : public Evaluator {
 public:
  /// `use_twig2stack` selects the bottom-up Twig2Stack variant.
  TwigStackEngine(const DataGraph& g, bool use_twig2stack = false,
                  std::vector<std::string> cross_names = {},
                  std::shared_ptr<const RegionEncoding> enc = nullptr);

  std::string_view name() const override {
    return twig2stack_ ? "twig2stack" : "twigstack";
  }
  QueryResult Evaluate(const Gtpq& q,
                       const GteaOptions& options = {}) override;
  /// Evaluates with explicit decomposition points (query node ids of
  /// the child endpoints of cross edges), bypassing name resolution.
  QueryResult EvaluateWithCross(const Gtpq& q,
                                const std::vector<QNodeId>& cross);
  const EngineStats& stats() const override { return stats_; }

 private:
  const DataGraph& g_;
  bool twig2stack_;
  std::vector<std::string> cross_names_;
  std::shared_ptr<const RegionEncoding> enc_;
  EngineStats stats_;
};

/// TwigStackD over the SSPI oracle (DAG data, conjunctive queries).
class TwigStackDEngine : public Evaluator {
 public:
  explicit TwigStackDEngine(const DataGraph& g);
  TwigStackDEngine(const DataGraph& g, std::shared_ptr<const Sspi> sspi);

  std::string_view name() const override { return "twigstackd"; }
  QueryResult Evaluate(const Gtpq& q,
                       const GteaOptions& options = {}) override;
  const EngineStats& stats() const override { return stats_; }
  const Sspi& sspi() const { return *sspi_; }

 private:
  const DataGraph& g_;
  std::shared_ptr<const Sspi> sspi_;
  EngineStats stats_;
};

/// HGJoin+ (tuple plans) or HGJoin* (match-graph intermediates) over
/// the interval index.
class HgJoinEngine : public Evaluator {
 public:
  HgJoinEngine(const DataGraph& g, bool graph_intermediates = false);
  HgJoinEngine(const DataGraph& g, bool graph_intermediates,
               std::shared_ptr<const IntervalIndex> idx);

  std::string_view name() const override {
    return options_.graph_intermediates ? "hgjoin*" : "hgjoin+";
  }
  QueryResult Evaluate(const Gtpq& q,
                       const GteaOptions& options = {}) override;
  const EngineStats& stats() const override { return stats_; }
  const HgJoinReport& report() const { return report_; }

 private:
  const DataGraph& g_;
  std::shared_ptr<const IntervalIndex> idx_;
  HgJoinOptions options_;
  EngineStats stats_;
  HgJoinReport report_;
};

/// Decompose-and-merge: expands a general GTPQ to conjunctive TPQs and
/// drives an inner conjunctive engine (Exp-2's baseline strategy).
/// Queries outside the supported fragment yield an empty result and a
/// non-OK last_status().
class DecomposeEngine : public Evaluator {
 public:
  DecomposeEngine(std::shared_ptr<Evaluator> inner);

  std::string_view name() const override { return name_; }
  QueryResult Evaluate(const Gtpq& q,
                       const GteaOptions& options = {}) override;
  const EngineStats& stats() const override { return stats_; }
  const Status& last_status() const { return last_status_; }

 private:
  std::shared_ptr<Evaluator> inner_;
  std::string name_;
  EngineStats stats_;
  Status last_status_ = Status::OK();
};

}  // namespace gtpq

#endif  // GTPQ_BASELINES_ENGINES_H_

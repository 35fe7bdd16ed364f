#ifndef GTPQ_CORE_MATCHING_GRAPH_H_
#define GTPQ_CORE_MATCHING_GRAPH_H_

#include <vector>

#include "core/eval_types.h"
#include "core/parallel_eval.h"
#include "graph/data_graph.h"
#include "query/gtpq.h"
#include "reachability/reachability_index.h"

namespace gtpq {

/// The maximal matching graph Qg(G) of Section 4.3: per prime-subtree
/// query node the surviving candidates, and per candidate one branch
/// list per prime child — the graph representation of intermediate
/// results. A data node appears at most once per query node; an AD/PC
/// relationship is represented by exactly one edge.
class MatchingGraph {
 public:
  /// Candidates of query node u (ascending order, post-pruning).
  const std::vector<NodeId>& Candidates(QNodeId u) const {
    return cand_[u];
  }
  bool InTree(QNodeId u) const { return covered_[u] != 0; }

  /// Branch list: indices into Candidates(child) matched by candidate
  /// #i of u. `child_slot` indexes u's prime children in query order.
  const std::vector<uint32_t>& Branch(QNodeId u, size_t cand_index,
                                      size_t child_slot) const {
    return branches_[u][cand_index][child_slot];
  }
  /// Prime children of u, in query order.
  const std::vector<QNodeId>& PrimeChildren(QNodeId u) const {
    return prime_children_[u];
  }

  size_t TotalNodes() const;
  size_t TotalEdges() const;

 private:
  friend MatchingGraph BuildMatchingGraph(
      const DataGraph& g, const ReachabilityOracle& idx, const Gtpq& q,
      const std::vector<char>& in_prime,
      const std::vector<std::vector<NodeId>>& mat,
      const GteaOptions& options, ParallelEvalContext* ctx,
      EngineStats* stats);
  friend bool ReduceMatchingGraph(const Gtpq& q, MatchingGraph* mg,
                                  EngineStats* stats);

  std::vector<char> covered_;
  std::vector<std::vector<NodeId>> cand_;
  std::vector<std::vector<QNodeId>> prime_children_;
  // branches_[u][cand_index][child_slot] -> candidate indices in child.
  std::vector<std::vector<std::vector<std::vector<uint32_t>>>> branches_;
  std::vector<std::vector<char>> alive_;
};

/// Computes edge matches for every prime query edge (Section 4.3). With
/// options.contour_matching_graph the child candidates are prepared
/// once and each parent candidate's successors are found in one oracle
/// scan (the per-candidate successor-contour pass on contour-capable
/// backends, with the ascending-chain early break); otherwise
/// straightforward pairwise reachability probes. PC edges use
/// adjacency.
MatchingGraph BuildMatchingGraph(const DataGraph& g,
                                 const ReachabilityOracle& idx,
                                 const Gtpq& q,
                                 const std::vector<char>& in_prime,
                                 const std::vector<std::vector<NodeId>>& mat,
                                 const GteaOptions& options,
                                 ParallelEvalContext* ctx,
                                 EngineStats* stats);

/// Fixpoint reduction: kills candidates lacking a parent edge (non-root
/// prime nodes) or missing a branch for some prime child — repairing the
/// PC-as-AD approximation and guaranteeing every surviving candidate
/// participates in a full match. Returns false iff some prime node lost
/// all candidates (empty answer).
bool ReduceMatchingGraph(const Gtpq& q, MatchingGraph* mg,
                         EngineStats* stats);

}  // namespace gtpq

#endif  // GTPQ_CORE_MATCHING_GRAPH_H_

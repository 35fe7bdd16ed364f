#ifndef GTPQ_CORE_PRUNE_H_
#define GTPQ_CORE_PRUNE_H_

#include <vector>

#include "core/eval_types.h"
#include "core/parallel_eval.h"
#include "graph/data_graph.h"
#include "query/gtpq.h"
#include "reachability/reachability_index.h"

namespace gtpq {

/// First pruning round (Procedure 6, PruneDownward): removes candidates
/// violating downward structural constraints. Bottom-up over the query;
/// per node, the pruned candidate sets of all AD children are
/// summarized once (a predecessor contour on contour-capable backends)
/// and every candidate is probed against all of them in one batched
/// oracle call, which lets chain-structured backends share index walks
/// across children.
///
/// Edge handling (Section 4.4, implemented strategy + correctness
/// refinement documented in DESIGN.md):
///  * AD children: oracle set-reachability (exact);
///  * PC children into predicate nodes: exact parent-set membership —
///    these never reach the matching graph, so approximation would
///    corrupt negation/disjunction semantics;
///  * PC children into backbone nodes: treated as AD here and repaired
///    on the maximal matching graph.
void PruneDownward(const DataGraph& g, const ReachabilityOracle& idx,
                   const Gtpq& q, std::vector<std::vector<NodeId>>* mat,
                   ParallelEvalContext* ctx, EngineStats* stats);

/// Prime subtree (Section 4.2.3 + 4.4): the minimal subtree containing
/// the query root, every output node, and every backbone node with a PC
/// incoming edge (those were AD-approximated during downward pruning and
/// must be repaired on the matching graph). Returns one flag per query
/// node; flagged nodes are always backbone.
std::vector<char> ComputePrimeSubtree(const Gtpq& q);

/// Second pruning round (Procedure 7, PruneUpward): top-down over the
/// prime subtree, removes candidates not reachable from the (pruned)
/// candidates of their prime parent. The parent set is summarized once
/// (a successor contour on contour-capable backends) and the child
/// candidates are refined in one batched oracle call. PC edges use
/// exact child sets. Returns false when some prime node lost all
/// candidates (empty answer).
bool PruneUpward(const DataGraph& g, const ReachabilityOracle& idx,
                 const Gtpq& q, const std::vector<char>& in_prime,
                 std::vector<std::vector<NodeId>>* mat,
                 const GteaOptions& options, ParallelEvalContext* ctx,
                 EngineStats* stats);

}  // namespace gtpq

#endif  // GTPQ_CORE_PRUNE_H_

#ifndef GTPQ_CORE_ENUMERATE_H_
#define GTPQ_CORE_ENUMERATE_H_

#include "core/eval_types.h"
#include "core/matching_graph.h"
#include "core/parallel_eval.h"
#include "query/gtpq.h"

namespace gtpq {

/// Derives the final answer from a reduced maximal matching graph
/// (Procedure 5, CollectResults, plus the shrinking of Section 4.3):
///
///  * ancestors of the lowest common ancestor of the output nodes are
///    discarded (pure filters at this point);
///  * singleton-candidate nodes are detached and their matches appended
///    to every tuple as constants;
///  * non-output leaves are discarded;
///  * what remains is a forest; each subtree is enumerated bottom-up
///    with per-(query node, candidate) memoization and the final answer
///    is the Cartesian product across subtrees.
///
/// Results are deduplicated (duplicates can arise when non-output nodes
/// remain in the shrunk subtree, as the paper notes).
QueryResult EnumerateResults(const Gtpq& q, const MatchingGraph& mg,
                             const GteaOptions& options,
                             ParallelEvalContext* ctx, EngineStats* stats);

}  // namespace gtpq

#endif  // GTPQ_CORE_ENUMERATE_H_

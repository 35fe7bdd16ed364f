#ifndef GTPQ_CORE_PARALLEL_EVAL_H_
#define GTPQ_CORE_PARALLEL_EVAL_H_

namespace gtpq {

/// Per-Evaluate context, created once at the top of GteaEngine::Evaluate
/// and passed to PruneDownward, PruneUpward, BuildMatchingGraph and
/// EnumerateResults. It is empty: GTEA runs serially on the calling
/// thread (QueryServer parallelizes across queries, not within one).
/// It is the slot the ROADMAP's error-channel item fills with per-query
/// state the stages report into.
struct ParallelEvalContext {};

}  // namespace gtpq

#endif  // GTPQ_CORE_PARALLEL_EVAL_H_

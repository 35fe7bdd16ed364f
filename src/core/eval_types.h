#ifndef GTPQ_CORE_EVAL_TYPES_H_
#define GTPQ_CORE_EVAL_TYPES_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "query/gtpq.h"

namespace gtpq {

/// One answer tuple: images of the query's output nodes, aligned with
/// QueryResult::output_nodes.
using ResultTuple = std::vector<NodeId>;

/// The answer Q(G): a deduplicated, lexicographically sorted set of
/// output tuples. All engines (GTEA, brute force, baselines) normalize
/// to this form, which is what the equivalence tests compare.
struct QueryResult {
  /// Output query nodes in ascending id order.
  std::vector<QNodeId> output_nodes;
  std::vector<ResultTuple> tuples;

  /// Sorts + dedupes tuples in place.
  void Normalize();
  bool operator==(const QueryResult& other) const {
    return output_nodes == other.output_nodes && tuples == other.tuples;
  }
  std::string ToString() const;
};

/// The six GTEA stages, in pipeline order (see core/gtea.h).
enum class Stage { kMatch, kPruneDown, kPrime, kPruneUp, kMatchingGraph,
                   kEnumerate };
inline constexpr size_t kNumStages = 6;

/// The stage's label in spans, stats output and the slow-query log
/// (match, prune_down, prime, prune_up, matching_graph, enumerate).
const char* StageName(Stage stage);

/// Evaluation-cost counters mirroring the paper's I/O metrics (Fig 10)
/// plus stage timings.
struct EngineStats {
  /// #input: data nodes accessed (candidate scans + pruning passes).
  uint64_t input_nodes = 0;
  /// #index: reachability index elements looked up.
  uint64_t index_lookups = 0;
  /// #intermediate_results: for GTEA, twice the nodes+edges of the
  /// maximal matching graph; for tuple-based engines, total tuple cells.
  uint64_t intermediate_size = 0;
  /// Join/merge operations performed (tuple-based baselines).
  uint64_t join_ops = 0;

  /// Wall time per stage, indexed by Stage; a stage the query never
  /// reached (empty early exit, tuple baselines) stays 0.
  std::array<double, kNumStages> stage_ms{};
  double total_ms = 0;

  double& ms(Stage s) { return stage_ms[static_cast<size_t>(s)]; }
  double ms(Stage s) const { return stage_ms[static_cast<size_t>(s)]; }

  void Reset() { *this = EngineStats(); }
  /// Sums every counter and timing (aggregation across queries).
  EngineStats& operator+=(const EngineStats& other);
};

/// Tuning / ablation switches for GTEA (Section 4 design choices).
struct GteaOptions {
  /// Second pruning round (upward structural constraints). Off = the
  /// ablation the paper motivates in Section 4.2.3.
  bool upward_pruning = true;
  /// Use per-node successor contours when building the maximal matching
  /// graph (the "more sophisticated approach" of Section 4.3); false =
  /// the straightforward pairwise reachability checks.
  bool contour_matching_graph = true;
  /// Skip query nodes whose candidate set is a singleton during upward
  /// pruning, as the paper's Procedure 7 does: a lone survivor either
  /// reaches the matching graph, where the fixpoint reduction re-checks
  /// it, or the query node is outside the prime subtree and the
  /// refinement was moot. Off by default because the refinement pass is
  /// cheap on singletons anyway.
  bool skip_singleton_upward = false;
  /// Cap on enumerated result tuples (0 = unlimited).
  size_t result_limit = 0;
};

}  // namespace gtpq

#endif  // GTPQ_CORE_EVAL_TYPES_H_

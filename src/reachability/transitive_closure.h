#ifndef GTPQ_REACHABILITY_TRANSITIVE_CLOSURE_H_
#define GTPQ_REACHABILITY_TRANSITIVE_CLOSURE_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "graph/algorithms.h"
#include "reachability/index_view.h"
#include "reachability/reachability_index.h"

namespace gtpq {

namespace storage {
class Writer;
class Reader;
}  // namespace storage

/// Full materialized transitive closure over SCC-condensed bitset rows.
/// Quadratic space — usable up to a few tens of thousands of nodes. It
/// is the golden oracle every other index is property-tested against,
/// and the substrate of the brute-force query evaluator.
class TransitiveClosure : public ReachabilityOracle {
 public:
  /// Builds from a finalized graph (cycles allowed).
  static TransitiveClosure Build(const Digraph& g);

  std::string_view name() const override { return "transitive_closure"; }

  bool Reaches(NodeId from, NodeId to) const override;

  size_t NumNodes() const { return scc_.component_of.size(); }

  /// Condensation view, for callers that fold many rows at once (not
  /// counted in stats()). ComponentRow(c) is a bitset over components
  /// holding every component reachable from c by a path of length >= 1
  /// that leaves c; c itself reaches itself iff ComponentCyclic(c).
  NodeId ComponentOf(NodeId v) const { return scc_.component_of[v]; }
  size_t NumComponents() const { return scc_.num_components; }
  bool ComponentCyclic(NodeId c) const { return scc_.cyclic[c] != 0; }
  std::span<const uint64_t> ComponentRow(NodeId c) const {
    return {rows_[c].data(), words_per_row_};
  }

  /// Persistence hooks (storage/index_io.h).
  void SaveBody(storage::Writer* w) const;
  static Result<TransitiveClosure> LoadBody(storage::Reader* r);

 private:
  TransitiveClosure() = default;

  bool CondReaches(NodeId cu, NodeId cv) const {
    return (rows_[cu][cv >> 6] >> (cv & 63)) & 1;
  }

  SccView scc_;
  size_t words_per_row_ = 0;
  NestedPodArray<uint64_t> rows_;  // per condensation node
};

}  // namespace gtpq

#endif  // GTPQ_REACHABILITY_TRANSITIVE_CLOSURE_H_

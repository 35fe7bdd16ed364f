#ifndef GTPQ_REACHABILITY_INTERVAL_INDEX_H_
#define GTPQ_REACHABILITY_INTERVAL_INDEX_H_

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

/// Tree-cover interval labeling (Agrawal, Borgida, Jagadish, SIGMOD'89)
/// — the OPT-tree-cover reachability index HGJoin builds on. A spanning
/// forest of the (condensed) DAG is labeled with post-order intervals;
/// every node additionally inherits the compressed interval lists of its
/// non-tree successors, so `from` reaches `to` iff some interval of
/// `from` contains `to`'s post-order number.
class IntervalIndex : public ReachabilityOracle {
 public:
  struct Interval {
    uint32_t low;
    uint32_t post;  // inclusive
  };

  static IntervalIndex Build(const Digraph& g);

  std::string_view name() const override { return "interval"; }

  bool Reaches(NodeId from, NodeId to) const override;

  /// Post-order number of a node (used by HGJoin's sort-merge joins as
  /// its Alist/Dlist ordering key).
  uint32_t PostOf(NodeId v) const { return post_[scc_.component_of[v]]; }

  /// Interval list of a node (own tree interval last).
  const PodArray<Interval>& IntervalsOf(NodeId v) const {
    return intervals_[scc_.component_of[v]];
  }

  /// Persistence hooks (storage/index_io.h).
  void SaveBody(storage::Writer* w) const;
  static Result<IntervalIndex> LoadBody(storage::Reader* r);

 private:
  IntervalIndex() = default;

  SccView scc_;
  PodArray<uint32_t> post_;            // per condensation node
  NestedPodArray<Interval> intervals_;  // per condensation node
  size_t total_intervals_ = 0;
};

}  // namespace gtpq

#endif  // GTPQ_REACHABILITY_INTERVAL_INDEX_H_

#ifndef GTPQ_REACHABILITY_CHAIN_COVER_INDEX_H_
#define GTPQ_REACHABILITY_CHAIN_COVER_INDEX_H_

#include <vector>

#include "common/status.h"
#include "graph/algorithms.h"
#include "reachability/chain_cover.h"
#include "reachability/index_view.h"
#include "reachability/reachability_index.h"

namespace gtpq {

namespace storage {
class Writer;
class Reader;
}  // namespace storage

/// Chain-cover reachability labeling (Jagadish, TODS'90): the SCC-
/// condensed DAG is decomposed into chains, and every node stores, per
/// chain, the smallest sequence number it reaches on that chain. A
/// probe is then a single table cell: `from` reaches `to` iff
/// first_[from][cid(to)] <= sid(to). Space is O(V * #chains), so this
/// backend suits narrow graphs (few chains); it shares the greedy
/// cover with the 3-hop index but trades list walks for direct cell
/// lookups.
class ChainCoverIndex : public ReachabilityOracle {
 public:
  static ChainCoverIndex Build(const Digraph& g);

  std::string_view name() const override { return "chain_cover"; }

  bool Reaches(NodeId from, NodeId to) const override;

  size_t NumChains() const { return cover_.NumChains(); }

  /// Persistence hooks (storage/index_io.h).
  void SaveBody(storage::Writer* w) const;
  static Result<ChainCoverIndex> LoadBody(storage::Reader* r);

 private:
  ChainCoverIndex() = default;

  static constexpr uint32_t kUnreachable = static_cast<uint32_t>(-1);

  SccView scc_;
  ChainCoverView cover_;  // over the condensation DAG
  /// first_[c][k]: smallest sid on chain k reachable from condensation
  /// node c by a non-empty path (kUnreachable when none).
  NestedPodArray<uint32_t> first_;
  size_t total_entries_ = 0;
};

}  // namespace gtpq

#endif  // GTPQ_REACHABILITY_CHAIN_COVER_INDEX_H_

#ifndef GTPQ_REACHABILITY_THREE_HOP_H_
#define GTPQ_REACHABILITY_THREE_HOP_H_

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

/// A (chain id, sequence number) position in the chain cover. Two
/// positions on the same chain compare by sid; distinct positions on the
/// same chain are connected by a non-empty path from the smaller to the
/// larger one.
struct ChainPos {
  uint32_t cid = 0;
  uint32_t sid = 0;
};

/// 3-hop reachability index (Jin et al., SIGMOD'09), as consumed by the
/// paper (Section 4.2.1):
///
///  * the DAG (of SCCs, for general graphs) is decomposed into chains;
///  * every node keeps a successor list Lout of "entry" positions — the
///    smallest node of another chain it reaches — storing only entries
///    that improve on what larger same-chain nodes already record;
///  * symmetrically a predecessor list Lin of "exit" positions;
///  * forward/backward tracing pointers skip same-chain nodes with empty
///    lists when assembling complete successor/predecessor lists.
///
/// All public operations are expressed both on data nodes and on
/// condensation ids (`CondId`); for DAGs the two coincide.
class ThreeHopIndex : public ReachabilityOracle {
 public:
  using CondId = uint32_t;
  static constexpr CondId kNoCond = static_cast<CondId>(-1);

  /// Builds the index from a finalized graph; cycles are handled by
  /// condensing SCCs first.
  static ThreeHopIndex Build(const Digraph& g);

  std::string_view name() const override { return "three_hop"; }

  /// Non-empty-path reachability between data nodes.
  bool Reaches(NodeId from, NodeId to) const override;

  // --- Structure accessors used by the contour/pruning machinery ---

  CondId CondOf(NodeId v) const { return scc_.component_of[v]; }
  ChainPos PosOfCond(CondId c) const { return pos_[c]; }
  ChainPos PosOf(NodeId v) const { return pos_[CondOf(v)]; }
  /// True iff the SCC behind `c` contains a cycle, i.e. its members
  /// reach themselves.
  bool CondCyclic(CondId c) const { return scc_.cyclic[c] != 0; }

  size_t NumChains() const { return cover_.NumChains(); }

  /// Entry positions (successor list) of condensation node c; entries
  /// lie on chains other than c's own.
  const PodArray<ChainPos>& Lout(CondId c) const { return lout_[c]; }
  /// Exit positions (predecessor list) of c.
  const PodArray<ChainPos>& Lin(CondId c) const { return lin_[c]; }

  /// Smallest strictly-larger same-chain node with non-empty Lout
  /// (forward tracing pointer); kNoCond at the chain top.
  CondId NextWithLout(CondId c) const { return next_with_lout_[c]; }
  /// Largest strictly-smaller same-chain node with non-empty Lin
  /// (backward tracing pointer); kNoCond at the chain bottom.
  CondId PrevWithLin(CondId c) const { return prev_with_lin_[c]; }

  /// Total sizes of all successor/predecessor lists (|Lout|, |Lin|).
  size_t TotalLoutSize() const { return total_lout_; }
  size_t TotalLinSize() const { return total_lin_; }

  /// Enumerates the complete successor list X_c: walks c and larger
  /// same-chain nodes via tracing pointers, invoking fn(entry) for every
  /// recorded entry (the self position is NOT included). Stops early if
  /// fn returns true; returns whether a callback returned true.
  template <typename Fn>
  bool ForEachSuccessorEntry(CondId c, Fn&& fn) const {
    IndexStats& st = stats();
    CondId cur = lout_[c].empty() ? next_with_lout_[c] : c;
    while (cur != kNoCond) {
      for (const ChainPos& e : lout_[cur]) {
        ++st.elements_looked_up;
        if (fn(e)) return true;
      }
      cur = next_with_lout_[cur];
    }
    return false;
  }

  /// Enumerates the complete predecessor list Y_c (self excluded),
  /// walking smaller same-chain nodes via backward tracing pointers.
  template <typename Fn>
  bool ForEachPredecessorEntry(CondId c, Fn&& fn) const {
    IndexStats& st = stats();
    CondId cur = lin_[c].empty() ? prev_with_lin_[c] : c;
    while (cur != kNoCond) {
      for (const ChainPos& e : lin_[cur]) {
        ++st.elements_looked_up;
        if (fn(e)) return true;
      }
      cur = prev_with_lin_[cur];
    }
    return false;
  }

  const ChainCoverView& cover() const { return cover_; }
  const SccView& scc() const { return scc_; }

  /// Persistence hooks (storage/index_io.h): SaveBody appends the
  /// labeling to a payload writer; LoadBody parses it back without
  /// rebuilding. The contour backend shares this body — ContourIndex
  /// carries no state of its own.
  void SaveBody(storage::Writer* w) const;
  static Result<ThreeHopIndex> LoadBody(storage::Reader* r);

 private:
  ThreeHopIndex() = default;

  // Flat state lives behind the IndexView seam: each array either owns
  // its elements (Build / heap loads) or borrows them from a pinned
  // read-only file mapping (LoadBody under a zero-copy reader).
  SccView scc_;
  ChainCoverView cover_;      // over the condensation DAG
  PodArray<ChainPos> pos_;    // condensation node -> position
  NestedPodArray<ChainPos> lout_, lin_;
  PodArray<CondId> next_with_lout_, prev_with_lin_;
  size_t total_lout_ = 0, total_lin_ = 0;
};

}  // namespace gtpq

#endif  // GTPQ_REACHABILITY_THREE_HOP_H_

#ifndef GTPQ_DYNAMIC_DELTA_OVERLAY_H_
#define GTPQ_DYNAMIC_DELTA_OVERLAY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/per_thread.h"
#include "common/status.h"
#include "dynamic/graph_delta.h"
#include "reachability/reachability_index.h"

namespace gtpq {

/// Incremental-maintenance decorator, named "delta:<inner spec>": an
/// immutable inner index built over a frozen base graph, plus a
/// GraphDelta of pending mutations. The serving runtime
/// (SharedEngineFactory::ApplyUpdates) wraps a gtea oracle in one on
/// its first update; it is not a factory spec and is never persisted.
/// Point reachability is answered over
/// the combined view with a bounded incremental search that leans on
/// the base index wherever it is still sound:
///
///  * empty delta — delegate to the inner index outright;
///  * insert-only delta — a positive inner answer is still a proof
///    (base paths survive), and the search probes the inner index at
///    every visited vertex, so it terminates as soon as it climbs back
///    onto indexed territory;
///  * delete-only delta — a negative inner answer is still a proof
///    (current reachability is a subset of base), and the search prunes
///    every vertex the base index says cannot reach the target;
///  * mixed delta — plain BFS over the combined view, bounded by the
///    graph; the auto-compaction threshold keeps this regime short.
///
/// Set-reachability uses the pairwise ReachabilityOracle defaults, so
/// the decorator conforms to the whole oracle API and GTEA engines can
/// sit on it unchanged.
///
/// Instances are IMMUTABLE once built — updates produce new snapshots:
/// WithUpdates() returns a fresh oracle sharing the same inner index
/// (and base graph) with the delta extended, and Compact() folds the
/// delta into a rebuilt inner index. The serving runtime swaps the
/// shared_ptr, so readers on the old snapshot never block writers.
///
/// The overlay validates batches only against its own pending delta: a
/// vertex removed before the last compaction is a plain isolated vertex
/// here. Keeping removed ids dead is the graph step's job
/// (ApplyUpdateBatch, which sees the tombstone label).
class DeltaOverlayOracle : public ReachabilityOracle {
 public:
  /// WithUpdates() auto-compacts once pending ops reach
  /// max(kMinCompactOps, kCompactFraction * base edges).
  static constexpr size_t kMinCompactOps = 1024;
  static constexpr double kCompactFraction = 0.10;

  /// Wraps a factory-built inner oracle over `base`, starting from an
  /// empty delta. UNLIKE every other backend (which is self-contained
  /// once built), the overlay ALIASES `base` — the incremental search
  /// walks its adjacency at probe time — so `base` must strictly
  /// outlive the oracle. Snapshots created by Compact() own their
  /// materialized base instead.
  DeltaOverlayOracle(std::shared_ptr<const ReachabilityOracle> inner,
                     const Digraph* base);

  std::string_view name() const override { return name_; }
  bool Reaches(NodeId from, NodeId to) const override;

  /// Delta-aware set reachability: summaries wrap the inner index's
  /// NATIVE set summaries over the base-id members, so a set probe
  /// costs one batched inner probe wherever a regime proof applies —
  /// empty delta (delegate outright), insert-only (a positive inner
  /// answer is a proof), delete-only (a negative inner answer is a
  /// proof) — and only the residual cases fall back to pairwise
  /// Reaches() with its memoized prefilters. Native probes bump
  /// IndexStats::queries ONCE per set probe (the pairwise defaults
  /// bump it per member), which is what the unit tests assert.
  std::unique_ptr<SetSummary> SummarizeTargets(
      std::span<const NodeId> members) const override;
  std::unique_ptr<SetSummary> SummarizeSources(
      std::span<const NodeId> members) const override;
  bool ReachesSet(NodeId from, const SetSummary& targets) const override;
  bool SetReaches(const SetSummary& sources, NodeId to) const override;
  /// Successor scans delegate to the inner index verbatim when the
  /// delta is empty (post-compaction snapshots); otherwise pairwise.
  std::unique_ptr<SetSummary> PrepareSuccessorTargets(
      std::span<const NodeId> targets) const override;
  void SuccessorsAmong(NodeId from, const SetSummary& targets,
                       std::vector<uint32_t>* out) const override;

  const ReachabilityOracle& inner() const { return *inner_; }
  const Digraph& base_graph() const { return *base_; }
  const GraphDelta& delta() const { return delta_; }
  /// Current vertex-id space (base + added vertices).
  size_t NumNodes() const { return delta_.NumNodes(); }
  /// Pending (un-compacted) mutation count.
  size_t PendingOps() const { return delta_.NumOps(); }
  /// Update batches absorbed since the last compaction base.
  uint64_t version() const { return delta_.version(); }
  /// Compactions performed along this snapshot chain.
  uint64_t compactions() const { return compactions_; }
  bool ShouldCompact() const;

  /// A new snapshot with `batch` folded into the delta (inner index and
  /// base graph shared). Auto-compacts past the threshold above.
  /// Rejects invalid batches without producing a snapshot.
  Result<std::shared_ptr<const DeltaOverlayOracle>> WithUpdates(
      const UpdateBatch& batch) const;

  /// A new snapshot whose inner index is rebuilt (through the factory
  /// spec of the inner oracle) over the materialized combined graph,
  /// with an empty delta.
  Result<std::shared_ptr<const DeltaOverlayOracle>> Compact() const;

  /// The combined view as a standalone finalized graph.
  Digraph MaterializeGraph() const {
    return delta_.MaterializeDigraph(*base_);
  }

 private:
  DeltaOverlayOracle() = default;

  /// Inner point probe with decorator accounting: the inner index's
  /// element lookups roll up into this oracle's stats slot.
  bool InnerReaches(NodeId from, NodeId to) const;
  bool SearchReaches(NodeId from, NodeId to) const;
  /// Prefilter facts (memoized per thread; snapshots are immutable, so
  /// entries never invalidate): can a removed edge sever base paths
  /// out of `from`? does any added edge lead (via base) into `to`?
  bool SourceTainted(NodeId from) const;
  bool UsableAddInto(NodeId to) const;

  std::shared_ptr<const ReachabilityOracle> inner_;
  std::string name_;  // "delta:" + inner spec
  std::shared_ptr<const Digraph> owned_base_;  // null when aliased
  const Digraph* base_ = nullptr;
  GraphDelta delta_;
  uint64_t compactions_ = 0;

  // Thread-confined probe scratch. PerThread slots are reclaimed only
  // at thread exit, so per-snapshot slots would strand O(n) bytes per
  // worker for every update epoch; instead the whole WithUpdates/
  // Compact chain shares ONE PerThread identity (safe: slots stay
  // thread-confined, and per-snapshot state is guarded below).
  struct SearchScratch {
    std::vector<uint32_t> mark;  // epoch-tagged visit marks
    uint32_t epoch = 0;
    std::vector<NodeId> stack;
  };
  std::shared_ptr<PerThread<SearchScratch>> scratch_;
  // Memoized prefilter verdicts (0 unknown / 1 yes / 2 no), keyed by
  // base vertex. GTEA's pairwise set probes hit the same sources and
  // targets thousands of times per query; the memo collapses each
  // repeat to one byte load. Verdicts depend on this snapshot's delta,
  // so the slot is tagged with the owning snapshot and reset when a
  // thread first probes a different snapshot of the chain.
  struct PrefilterCache {
    uint64_t snapshot_tag = 0;
    std::vector<uint8_t> tainted;
    std::vector<uint8_t> usable;
  };
  std::shared_ptr<PerThread<PrefilterCache>> prefilter_;
  uint64_t snapshot_tag_ = 0;  // process-unique per snapshot

  PrefilterCache& LocalPrefilterCache() const;
};

}  // namespace gtpq

#endif  // GTPQ_DYNAMIC_DELTA_OVERLAY_H_

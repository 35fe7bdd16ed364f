#ifndef GTPQ_REACHABILITY_REACHABILITY_INDEX_H_
#define GTPQ_REACHABILITY_REACHABILITY_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/per_thread.h"
#include "common/status.h"
#include "graph/digraph.h"

namespace gtpq {

struct UpdateBatch;  // dynamic/graph_delta.h

/// Counters kept by all reachability indexes, feeding the #index
/// metric of the paper's I/O-cost experiment (Fig 10). Each thread
/// accumulates into its own private copy (see ReachabilityOracle::
/// stats()), so the counters stay per-query even when one oracle
/// serves a whole thread pool.
struct IndexStats {
  /// Index elements (list entries, intervals, surplus links) visited.
  uint64_t elements_looked_up = 0;
  /// Point reachability queries answered.
  uint64_t queries = 0;

  void Reset() { *this = IndexStats(); }
};

/// Abstract ancestor-descendant oracle. Semantics follow Section 2
/// exactly: Reaches(u, v) is true iff there is a path of length >= 1
/// from u to v; hence Reaches(v, v) holds only when v lies on a cycle.
///
/// Beyond the point query, the oracle exposes the set-reachability
/// operations GTEA's pipeline is built on (candidate pruning and
/// maximal-matching-graph construction): summarize a node set once,
/// then probe many nodes against it. Every operation has a pairwise
/// default in terms of Reaches(), so any index that answers point
/// queries qualifies as a GTEA backend; indexes with a native batched
/// representation (e.g. the merged contours of Section 4.2.1 over the
/// 3-hop index) override them.
///
/// Concurrency contract (QueryServer relies on it: its workers share one
/// oracle and evaluate different queries at once): the oracle and every
/// SetSummary are immutable once constructed, so any number of threads
/// may issue probes concurrently without external locking.
/// Implementations keep mutable probe scratch and the IndexStats
/// counters in thread-confined PerThread slots.
class ReachabilityOracle {
 public:
  /// Opaque per-oracle summary of a node set, produced by one of the
  /// Summarize*/Prepare* factories below. A summary must only be passed
  /// back to the oracle that created it, and only to the probe matching
  /// the factory it came from (targets -> ReachesSet/ReachesSetsBatch,
  /// sources -> SetReaches/SetReachesBatch, successor targets ->
  /// SuccessorsAmong).
  class SetSummary {
   public:
    virtual ~SetSummary() = default;
  };

  virtual ~ReachabilityOracle() = default;

  /// Short machine-readable backend name ("three_hop", "contour", ...).
  virtual std::string_view name() const = 0;

  /// True iff a non-empty path leads from `from` to `to`.
  virtual bool Reaches(NodeId from, NodeId to) const = 0;

  // --- Set-reachability API ---------------------------------------------

  /// Summarizes `members` for repeated "does v reach the set?" probes.
  virtual std::unique_ptr<SetSummary> SummarizeTargets(
      std::span<const NodeId> members) const;
  /// Summarizes `members` for repeated "does the set reach v?" probes.
  virtual std::unique_ptr<SetSummary> SummarizeSources(
      std::span<const NodeId> members) const;

  /// Does `from` reach (non-empty path) at least one member of the
  /// summarized target set?
  virtual bool ReachesSet(NodeId from, const SetSummary& targets) const;
  /// Does at least one member of the summarized source set reach `to`?
  virtual bool SetReaches(const SetSummary& sources, NodeId to) const;

  /// Batched downward probe: for every source i and target set k, does
  /// sources[i] reach a member of *target_sets[k]? Fills
  /// (*out)[k][i]. Evaluating all sets jointly lets chain-structured
  /// backends share one index walk across sets (Procedure 6).
  virtual void ReachesSetsBatch(
      std::span<const NodeId> sources,
      std::span<const SetSummary* const> target_sets,
      std::vector<std::vector<char>>* out) const;

  /// Batched upward probe: (*out)[i] = does some summarized source
  /// reach targets[i]? (Procedure 7's refinement step.)
  virtual void SetReachesBatch(const SetSummary& sources,
                               std::span<const NodeId> targets,
                               std::vector<char>* out) const;

  /// Prepares a *sorted* target list for repeated SuccessorsAmong
  /// scans (one scan per source when building the matching graph).
  virtual std::unique_ptr<SetSummary> PrepareSuccessorTargets(
      std::span<const NodeId> targets) const;
  /// Appends to `out`, in ascending order, the indices i (into the
  /// prepared target list) with Reaches(from, targets[i]).
  virtual void SuccessorsAmong(NodeId from, const SetSummary& targets,
                               std::vector<uint32_t>* out) const;

  // --- Native updates ---------------------------------------------------

  /// True when this oracle can fold an UpdateBatch into itself without
  /// being wrapped in a DeltaOverlayOracle. The epoch-snapshot update
  /// path (SharedEngineFactory::ApplyUpdates) prefers this route: the
  /// SAME oracle instance keeps serving across epochs, re-based onto
  /// each snapshot's materialized graph. Stateless index backends stay
  /// `false`; distributed front-ends (cluster ShardRouter) say `true`
  /// because their authoritative state lives in remote shard processes.
  virtual bool SupportsNativeUpdates() const { return false; }

  /// Applies `batch` in place. Only called when SupportsNativeUpdates()
  /// is true; `const` because oracles are shared as
  /// shared_ptr<const> — implementations synchronize internally and
  /// must keep concurrent Reaches() probes answering consistently
  /// (before-state or after-state, never a mix).
  virtual Status ApplyNativeUpdate(const UpdateBatch& batch) const {
    (void)batch;
    return Status::Unimplemented(std::string(name()) +
                                 " does not support native updates");
  }

  /// The calling thread's private counter slot for this oracle. Oracles
  /// are immutable once built and shared read-only across query-serving
  /// threads; confining the counters to the probing thread keeps every
  /// Evaluate's reset-probe-read cycle data-race-free without locking
  /// the hot path. Readers must aggregate on the thread that probed.
  IndexStats& stats() const { return stats_slot_.Local(); }

  /// Pins an external buffer (e.g. a read-only file mapping) for this
  /// oracle's lifetime. Zero-copy loaders call this on the root oracle
  /// of a loaded index so that flat-array views borrowed from the
  /// buffer outlive every probe; the root owns all nested sub-indexes,
  /// so one pin covers the whole decorator chain.
  void RetainBuffer(std::shared_ptr<const void> buffer) {
    retained_buffers_.push_back(std::move(buffer));
  }

 private:
  PerThread<IndexStats> stats_slot_;
  std::vector<std::shared_ptr<const void>> retained_buffers_;
};

}  // namespace gtpq

#endif  // GTPQ_REACHABILITY_REACHABILITY_INDEX_H_

#ifndef GTPQ_RUNTIME_ENGINE_FACTORY_H_
#define GTPQ_RUNTIME_ENGINE_FACTORY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/evaluator.h"
#include "dynamic/graph_delta.h"
#include "graph/data_graph.h"
#include "reachability/reachability_index.h"

namespace gtpq {

/// One immutable serving epoch: a graph view plus an engine stamp bound
/// to it. Snapshots are produced by SharedEngineFactory — epoch 0 wraps
/// the caller's base graph, every ApplyUpdates() installs a successor —
/// and are handed out as shared_ptr<const>, so a batch that pinned a
/// snapshot keeps its whole world (graph, oracle, engines) alive and
/// consistent while newer epochs are already serving.
class EngineSnapshot {
 public:
  uint64_t epoch() const { return epoch_; }
  const DataGraph& graph() const { return *graph_; }
  /// Stamps a fresh Evaluator over this snapshot's shared artifacts.
  /// The engine must not outlive the snapshot (hold the shared_ptr).
  std::unique_ptr<Evaluator> CreateEngine() const { return create_(); }
  /// Name the stamped engines report (e.g. "gtea[delta:contour]" once
  /// updates wrapped the oracle).
  std::string_view engine_name() const { return engine_name_; }
  /// The snapshot's shared reachability oracle — set for gtea specs,
  /// null otherwise (tuple baselines build no oracle). The network
  /// tier answers PROBE frames from this without stamping an engine.
  const ReachabilityOracle* oracle() const { return oracle_.get(); }

 private:
  friend class SharedEngineFactory;

  uint64_t epoch_ = 0;
  const DataGraph* graph_ = nullptr;
  std::shared_ptr<const DataGraph> owned_graph_;  // null at epoch 0
  std::function<std::unique_ptr<Evaluator>()> create_;
  std::string engine_name_;
  // Set on the incremental gtea path: the snapshot's (possibly
  // delta-wrapped) oracle, threaded into the next ApplyUpdates.
  std::shared_ptr<const ReachabilityOracle> oracle_;
};

/// The engine registry, and per-worker engine stamping for the serving
/// runtime. Building an index per engine is exactly wrong for a thread
/// pool: N workers would pay N index builds for one immutable artifact.
/// This factory parses an engine spec once, builds the spec's shared
/// immutable pieces once (reachability oracle, transitive closure,
/// SSPI, interval index, region encoding — all read-only after
/// construction, with thread-confined counters), and then stamps out
/// cheap per-worker Evaluators that share them.
///
/// Specs:
///   gtea            GTEA on the default (contour) backend
///   gtea:<spec>     GTEA on any reachability spec: a registered
///                   backend name or a decorator chain
///                   (e.g. gtea:interval, gtea:sharded:interval)
///   naive           brute force over the transitive closure
///   twigstack, twig2stack, twigstackd, hgjoin+, hgjoin*
///   decompose:<engine-spec>
/// Twig engines get no decomposition points (construct TwigStackEngine
/// directly to seed them). Create() is safe to call from any thread;
/// each returned Evaluator must stay thread-confined (the Evaluator
/// contract says nothing about concurrent Evaluate calls on ONE
/// instance — sharing happens at the oracle layer).
///
/// The factory is also the write side of dynamic serving, and the only
/// way an update enters: ApplyUpdates runs the batch through the graph
/// step (ApplyUpdateBatch) into a NEW EngineSnapshot and installs it
/// atomically, while readers holding the previous snapshot() continue
/// unblocked (epoch-based snapshot isolation; readers never block
/// writers, writers never block readers). Removed vertices keep their
/// tombstone label in every successor graph, which is what rejects
/// later ops on them, for every engine spec and across a restart from
/// a saved graph. For "gtea" specs the oracle is maintained
/// incrementally — the first update wraps it in a DeltaOverlayOracle,
/// later ones extend the delta (auto-compacting past the overlay's
/// threshold) — so an update costs a linear graph materialization
/// instead of an index rebuild. Other engine specs fall back to a full
/// artifact rebuild over the updated graph, preserving the same
/// snapshot semantics.
class SharedEngineFactory {
 public:
  /// Parses the spec and prebuilds its shared artifacts. Returns
  /// nullptr for unknown specs. `g` must outlive the factory; it backs
  /// the epoch-0 snapshot.
  static std::unique_ptr<SharedEngineFactory> Make(std::string_view spec,
                                                   const DataGraph& g);

  /// The current snapshot. Callers that stamp engines for a whole batch
  /// should pin one snapshot and use it throughout.
  std::shared_ptr<const EngineSnapshot> snapshot() const;
  uint64_t epoch() const { return snapshot()->epoch(); }

  /// Stamps a fresh Evaluator bound to the current snapshot.
  std::unique_ptr<Evaluator> Create() const {
    return snapshot()->CreateEngine();
  }

  /// Validates `batch` against the current snapshot's graph view and
  /// installs the successor snapshot. Thread-safe: concurrent writers
  /// serialize, concurrent readers keep serving the old epoch. On error
  /// nothing changes.
  Status ApplyUpdates(const UpdateBatch& batch);

  std::string_view spec() const { return spec_; }

 private:
  explicit SharedEngineFactory(std::string spec) : spec_(std::move(spec)) {}

  /// Builds the epoch-0 creator (and, for gtea specs, the shared
  /// oracle) over `g`. Returns false for unknown specs.
  bool BuildInitialSnapshot(const DataGraph& g);

  void Install(std::shared_ptr<const EngineSnapshot> next);

  std::string spec_;

  mutable std::mutex mu_;        // guards current_
  std::shared_ptr<const EngineSnapshot> current_;
  std::mutex update_mu_;         // serializes ApplyUpdates
};

}  // namespace gtpq

#endif  // GTPQ_RUNTIME_ENGINE_FACTORY_H_

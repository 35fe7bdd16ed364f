#include "runtime/engine_factory.h"

#include <utility>

#include "baselines/engines.h"
#include "baselines/tree_encoding.h"
#include "core/gtea.h"
#include "dynamic/delta_overlay.h"
#include "reachability/factory.h"

namespace gtpq {

std::unique_ptr<SharedEngineFactory> SharedEngineFactory::Make(
    std::string_view spec, const DataGraph& g) {
  auto factory = std::unique_ptr<SharedEngineFactory>(
      new SharedEngineFactory(std::string(spec)));
  if (!factory->BuildInitialSnapshot(g)) return nullptr;
  return factory;
}

bool SharedEngineFactory::BuildInitialSnapshot(const DataGraph& g) {
  auto snap = std::make_shared<EngineSnapshot>();
  snap->epoch_ = 0;
  snap->graph_ = &g;
  const std::string_view spec = spec_;

  if (spec == "gtea" || spec.rfind("gtea:", 0) == 0) {
    const std::string_view oracle_spec =
        spec == "gtea" ? std::string_view("contour") : spec.substr(5);
    auto idx = MakeReachabilityIndex(oracle_spec, g.graph());
    if (idx == nullptr) return false;
    std::shared_ptr<const ReachabilityOracle> shared(std::move(idx));
    snap->oracle_ = shared;
    snap->create_ = [&g, shared] {
      return std::make_unique<GteaEngine>(g, shared);
    };
  } else if (spec == "naive") {
    auto tc = std::make_shared<const TransitiveClosure>(
        TransitiveClosure::Build(g.graph()));
    snap->create_ = [&g, tc] {
      return std::make_unique<BruteForceEngine>(g, tc);
    };
  } else if (spec == "twigstack" || spec == "twig2stack") {
    const bool twig2 = spec == "twig2stack";
    auto enc =
        std::make_shared<const RegionEncoding>(BuildRegionEncoding(g));
    snap->create_ = [&g, twig2, enc] {
      return std::make_unique<TwigStackEngine>(
          g, twig2, std::vector<std::string>{}, enc);
    };
  } else if (spec == "twigstackd") {
    auto sspi = std::make_shared<const Sspi>(Sspi::Build(g.graph()));
    snap->create_ = [&g, sspi] {
      return std::make_unique<TwigStackDEngine>(g, sspi);
    };
  } else if (spec == "hgjoin+" || spec == "hgjoin*") {
    const bool graph_intermediates = spec == "hgjoin*";
    auto idx = std::make_shared<const IntervalIndex>(
        IntervalIndex::Build(g.graph()));
    snap->create_ = [&g, graph_intermediates, idx] {
      return std::make_unique<HgJoinEngine>(g, graph_intermediates, idx);
    };
  } else if (spec.rfind("decompose:", 0) == 0) {
    auto inner = Make(spec.substr(10), g);
    if (inner == nullptr) return false;
    // shared_ptr keeps the inner factory alive inside the creator.
    std::shared_ptr<SharedEngineFactory> inner_shared(std::move(inner));
    snap->create_ = [inner_shared] {
      return std::make_unique<DecomposeEngine>(
          std::shared_ptr<Evaluator>(inner_shared->Create()));
    };
  } else {
    return false;
  }

  snap->engine_name_ = std::string(snap->create_()->name());
  Install(std::move(snap));
  return true;
}

std::shared_ptr<const EngineSnapshot> SharedEngineFactory::snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

void SharedEngineFactory::Install(
    std::shared_ptr<const EngineSnapshot> next) {
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(next);
}

Status SharedEngineFactory::ApplyUpdates(const UpdateBatch& batch) {
  std::lock_guard<std::mutex> writer(update_mu_);
  const std::shared_ptr<const EngineSnapshot> cur = snapshot();

  // The graph step validates the batch, removed vertices included (the
  // tombstone label in the current graph is the record of a removal),
  // and materializes the successor view over the current DataGraph
  // (shared attribute namespace, stable ids). This is linear work — the
  // index stays incremental below.
  auto stepped = ApplyUpdateBatch(cur->graph(), batch);
  GTPQ_RETURN_NOT_OK(stepped.status());
  auto next_graph = std::make_shared<const DataGraph>(stepped.TakeValue());

  auto next = std::make_shared<EngineSnapshot>();
  next->epoch_ = cur->epoch_ + 1;
  next->owned_graph_ = next_graph;
  next->graph_ = next_graph.get();

  if (spec_ == "gtea" || spec_.rfind("gtea:", 0) == 0) {
    if (cur->oracle_ != nullptr && cur->oracle_->SupportsNativeUpdates()) {
      // Native path (cluster routers): the oracle folds the batch into
      // its own state — remote shard processes, in the router's case —
      // and the SAME instance keeps serving, re-based onto the new
      // materialized graph. No delta wrap, no rebuild.
      GTPQ_RETURN_NOT_OK(cur->oracle_->ApplyNativeUpdate(batch));
      next->oracle_ = cur->oracle_;
      next->create_ = [graph = next_graph, oracle = cur->oracle_] {
        return std::make_unique<GteaEngine>(*graph, oracle);
      };
      next->engine_name_ = cur->engine_name_;
      Install(std::move(next));
      return Status::OK();
    }
    // Incremental oracle maintenance: the first update wraps the
    // immutable epoch-0 oracle in a delta overlay (its base digraph is
    // the caller's graph, which outlives the factory); later updates
    // extend the delta or auto-compact.
    std::shared_ptr<const DeltaOverlayOracle> overlay =
        std::dynamic_pointer_cast<const DeltaOverlayOracle>(cur->oracle_);
    if (overlay == nullptr) {
      overlay = std::make_shared<const DeltaOverlayOracle>(
          cur->oracle_, &cur->graph().graph());
    }
    auto updated = overlay->WithUpdates(batch);
    GTPQ_RETURN_NOT_OK(updated.status());
    std::shared_ptr<const ReachabilityOracle> oracle = updated.TakeValue();
    next->oracle_ = oracle;
    next->create_ = [graph = next_graph, oracle] {
      return std::make_unique<GteaEngine>(*graph, oracle);
    };
    // The oracle (and hence the reported name) changed: stamp one
    // engine to pick it up ("gtea[delta:contour]").
    next->engine_name_ = std::string(next->create_()->name());
  } else {
    // Non-gtea engines rebuild their shared artifacts over the updated
    // graph — same snapshot semantics, no incremental path.
    auto rebuilt = Make(spec_, *next_graph);
    if (rebuilt == nullptr) {
      return Status::Internal("engine spec '" + spec_ +
                              "' cannot be rebuilt over the updated graph");
    }
    const std::shared_ptr<const EngineSnapshot> stamped =
        rebuilt->snapshot();
    next->oracle_ = stamped->oracle_;
    next->create_ = stamped->create_;
    next->engine_name_ = stamped->engine_name_;
  }

  Install(std::move(next));
  return Status::OK();
}

}  // namespace gtpq

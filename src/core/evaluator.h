#ifndef GTPQ_CORE_EVALUATOR_H_
#define GTPQ_CORE_EVALUATOR_H_

#include <string_view>

#include "core/eval_types.h"
#include "query/gtpq.h"

namespace gtpq {

/// The common engine seam: every GTPQ evaluation strategy — GTEA and
/// the tuple-based baselines (brute force, TwigStack, Twig2Stack,
/// TwigStackD, HGJoin, decompose-and-merge) — implements this
/// interface, so benchmarks, differential tests, and future scaling
/// layers (sharded indexes, delta overlays, the shard router) treat
/// engines uniformly.
///
/// Contract:
///  * Evaluate() returns the normalized answer Q(G) and fully resets
///    stats() (and any owned index's IndexStats) at its top, so
///    back-to-back queries on a shared engine never accumulate stale
///    counters;
///  * stats() describes the most recent Evaluate() call, with
///    index_lookups plumbed from the engine's reachability oracle;
///  * engines that cannot evaluate a query (unsupported fragment)
///    return an empty result and say so via their own side channel
///    (e.g. DecomposeEngine::last_status());
///  * threading: one Evaluator instance is thread-confined (Evaluate
///    and stats() must be called from one thread at a time), but any
///    number of instances may share the immutable index artifacts —
///    oracle counters and scratch are per-thread, so concurrent
///    Evaluate calls on SIBLING engines are data-race-free. The
///    serving runtime (runtime/query_server.h) pins one engine per
///    pool worker on exactly this contract.
class Evaluator {
 public:
  virtual ~Evaluator() = default;

  /// Short engine name for reports ("gtea", "twigstackd", ...).
  virtual std::string_view name() const = 0;

  /// Evaluates the query; returns the normalized answer Q(G).
  virtual QueryResult Evaluate(const Gtpq& q,
                               const GteaOptions& options = {}) = 0;

  /// Stats of the most recent Evaluate call.
  virtual const EngineStats& stats() const = 0;
};

}  // namespace gtpq

#endif  // GTPQ_CORE_EVALUATOR_H_

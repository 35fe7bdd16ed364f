#ifndef GTPQ_REACHABILITY_FACTORY_H_
#define GTPQ_REACHABILITY_FACTORY_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "reachability/reachability_index.h"

namespace gtpq {

/// The registered reachability backends. Every backend answers the full
/// ReachabilityOracle API (point + set queries) over arbitrary finalized
/// digraphs; they differ in build cost, space, and per-probe #index.
enum class ReachabilityBackend {
  /// 3-hop chain labeling with merged-contour set operations — the
  /// paper's GTEA configuration and the engine default.
  kContour,
  /// Plain 3-hop chain labeling; set operations fall back to pairwise
  /// point probes (isolates the contour machinery's savings).
  kThreeHop,
  /// OPT-tree-cover interval labeling (Agrawal et al., SIGMOD'89).
  kInterval,
  /// Surrogate & surplus predecessor index of TwigStackD (VLDB'05).
  kSspi,
  /// Chain-cover table labeling (Jagadish, TODS'90).
  kChainCover,
  /// Materialized SCC-condensed closure — the golden oracle.
  kTransitiveClosure,
};

/// All registered backends, in the order above.
std::vector<ReachabilityBackend> AllReachabilityBackends();

/// Canonical lowercase name ("contour", "three_hop", ...).
std::string_view ReachabilityBackendName(ReachabilityBackend kind);

/// Parses a canonical backend name; nullopt for unknown names.
std::optional<ReachabilityBackend> ParseReachabilityBackend(
    std::string_view name);

/// Builds a backend over a finalized digraph (cycles allowed).
std::unique_ptr<ReachabilityOracle> MakeReachabilityIndex(
    ReachabilityBackend kind, const Digraph& g);

/// Spec-string factory — the superset of the enum factory that also
/// understands decorators and persisted indexes:
///   <backend>         a registered base backend name ("contour", ...)
///   sharded:<spec>    vertex-partitioned oracle whose per-shard
///                     sub-indexes are built from <spec> (ShardedOracle)
///   file:<path>       a pre-built index persisted by
///                     storage::SaveReachabilityIndex; rejected (with a
///                     logged warning) unless its stored fingerprint
///                     matches `g`. The loaded oracle's name() is the
///                     spec it was saved under, not "file:...".
///   mmap:<path>       file: with a zero-copy loader (the oracle borrows
///                     a read-only shared mapping of the file)
///   cluster:<map>[@<ep1,ep2,...>]
///                     scatter-gather router over live `gteactl serve`
///                     shards (cluster/shard_router.h). <map> is a
///                     .gtpqmap written by `gteactl partition`; the
///                     optional @-list overrides the endpoints baked
///                     into it. Rejected unless the map's fingerprint
///                     matches `g` and every shard answers its HELLO.
///                     Needs live servers, so it is not enrolled in
///                     AllReachabilitySpecs().
/// sharded: nests ("sharded:sharded:interval"); file:, mmap: and
/// cluster: are rejected beneath it (see IsValidReachabilitySpec). Live
/// updates are not a spec: the serving runtime wraps the built oracle
/// in a DeltaOverlayOracle on its first update (runtime/engine_factory.h).
/// The built oracle's name() equals the spec (file: and mmap: aside).
/// Returns nullptr for malformed specs and unreadable or mismatched
/// index files.
std::unique_ptr<ReachabilityOracle> MakeReachabilityIndex(
    std::string_view spec, const Digraph& g);

/// True iff MakeReachabilityIndex(spec, g) would succeed.
bool IsValidReachabilitySpec(std::string_view spec);

/// Every spec enrolled in the backend conformance suite: the base
/// backends and sharded: over each of them. Any oracle constructible
/// through the factory appears here, so new backends and decorators
/// cannot silently skip conformance.
std::vector<std::string> AllReachabilitySpecs();

}  // namespace gtpq

#endif  // GTPQ_REACHABILITY_FACTORY_H_

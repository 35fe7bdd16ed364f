#include "reachability/factory.h"

#include "cluster/partition_map.h"
#include "cluster/shard_router.h"
#include "common/logging.h"
#include "reachability/chain_cover_index.h"
#include "reachability/contour.h"
#include "reachability/interval_index.h"
#include "reachability/sharded_oracle.h"
#include "reachability/sspi.h"
#include "reachability/three_hop.h"
#include "reachability/transitive_closure.h"
#include "storage/index_io.h"

namespace gtpq {

namespace {
constexpr std::string_view kShardedPrefix = "sharded:";
constexpr std::string_view kFilePrefix = "file:";
constexpr std::string_view kMmapPrefix = "mmap:";
constexpr std::string_view kClusterPrefix = "cluster:";

// Splits "cluster:<map-path>[@<ep1,ep2,...>]" after the prefix. The
// separator is the LAST '@' so map paths may contain one; endpoints
// ("host:port") cannot.
void SplitClusterSpec(std::string_view rest, std::string* map_path,
                      std::vector<std::string>* endpoints) {
  const size_t at = rest.rfind('@');
  if (at == std::string_view::npos) {
    *map_path = std::string(rest);
    return;
  }
  *map_path = std::string(rest.substr(0, at));
  std::string_view list = rest.substr(at + 1);
  while (!list.empty()) {
    const size_t comma = list.find(',');
    endpoints->emplace_back(list.substr(0, comma));
    if (comma == std::string_view::npos) break;
    list = list.substr(comma + 1);
  }
}
}  // namespace

std::vector<ReachabilityBackend> AllReachabilityBackends() {
  return {ReachabilityBackend::kContour,    ReachabilityBackend::kThreeHop,
          ReachabilityBackend::kInterval,   ReachabilityBackend::kSspi,
          ReachabilityBackend::kChainCover,
          ReachabilityBackend::kTransitiveClosure};
}

std::string_view ReachabilityBackendName(ReachabilityBackend kind) {
  switch (kind) {
    case ReachabilityBackend::kContour:
      return "contour";
    case ReachabilityBackend::kThreeHop:
      return "three_hop";
    case ReachabilityBackend::kInterval:
      return "interval";
    case ReachabilityBackend::kSspi:
      return "sspi";
    case ReachabilityBackend::kChainCover:
      return "chain_cover";
    case ReachabilityBackend::kTransitiveClosure:
      return "transitive_closure";
  }
  return "unknown";
}

std::optional<ReachabilityBackend> ParseReachabilityBackend(
    std::string_view name) {
  for (ReachabilityBackend kind : AllReachabilityBackends()) {
    if (name == ReachabilityBackendName(kind)) return kind;
  }
  return std::nullopt;
}

std::unique_ptr<ReachabilityOracle> MakeReachabilityIndex(
    ReachabilityBackend kind, const Digraph& g) {
  switch (kind) {
    case ReachabilityBackend::kContour:
      return std::make_unique<ContourIndex>(ContourIndex::Build(g));
    case ReachabilityBackend::kThreeHop:
      return std::make_unique<ThreeHopIndex>(ThreeHopIndex::Build(g));
    case ReachabilityBackend::kInterval:
      return std::make_unique<IntervalIndex>(IntervalIndex::Build(g));
    case ReachabilityBackend::kSspi:
      return std::make_unique<Sspi>(Sspi::Build(g));
    case ReachabilityBackend::kChainCover:
      return std::make_unique<ChainCoverIndex>(ChainCoverIndex::Build(g));
    case ReachabilityBackend::kTransitiveClosure:
      return std::make_unique<TransitiveClosure>(
          TransitiveClosure::Build(g));
  }
  return nullptr;
}

std::unique_ptr<ReachabilityOracle> MakeReachabilityIndex(
    std::string_view spec, const Digraph& g) {
  if (spec.rfind(kFilePrefix, 0) == 0) {
    const std::string path(spec.substr(kFilePrefix.size()));
    auto loaded = storage::LoadReachabilityIndex(path, g);
    if (!loaded.ok()) {
      GTPQ_LOG(Warning) << "cannot serve reachability index from '" << path
                        << "': " << loaded.status().ToString();
      return nullptr;
    }
    return loaded.TakeValue();
  }
  if (spec.rfind(kMmapPrefix, 0) == 0) {
    const std::string path(spec.substr(kMmapPrefix.size()));
    auto loaded = storage::LoadReachabilityIndexView(path, g);
    if (!loaded.ok()) {
      GTPQ_LOG(Warning) << "cannot mmap reachability index from '" << path
                        << "': " << loaded.status().ToString();
      return nullptr;
    }
    return loaded.TakeValue();
  }
  if (spec.rfind(kClusterPrefix, 0) == 0) {
    std::string map_path;
    cluster::ShardRouterOptions options;
    SplitClusterSpec(spec.substr(kClusterPrefix.size()), &map_path,
                     &options.endpoints);
    auto map = cluster::LoadPartitionMap(map_path);
    if (!map.ok()) {
      GTPQ_LOG(Warning) << "cannot load partition map '" << map_path
                        << "': " << map.status().ToString();
      return nullptr;
    }
    if (map->graph_fingerprint != storage::GraphFingerprint(g) ||
        map->num_nodes != g.NumNodes()) {
      GTPQ_LOG(Warning) << "partition map '" << map_path
                        << "' was built for a different graph";
      return nullptr;
    }
    auto router = cluster::ShardRouter::Connect(map.TakeValue(),
                                                std::move(options));
    if (!router.ok()) {
      GTPQ_LOG(Warning) << "cannot route cluster '" << map_path
                        << "': " << router.status().ToString();
      return nullptr;
    }
    return router.TakeValue();
  }
  if (spec.rfind(kShardedPrefix, 0) == 0) {
    std::string_view inner_spec = spec.substr(kShardedPrefix.size());
    // Validate the full spec, not just the inner one: it knows that a
    // file: anywhere under sharded: can never serve (a persisted index
    // is fingerprinted against the whole graph, not a shard subgraph),
    // where the stripped inner spec would look loadable.
    if (!IsValidReachabilitySpec(spec)) return nullptr;
    ShardedOracleOptions options;
    options.inner_spec = std::string(inner_spec);
    return std::make_unique<ShardedOracle>(g, std::move(options));
  }
  auto kind = ParseReachabilityBackend(spec);
  if (!kind.has_value()) return nullptr;
  return MakeReachabilityIndex(*kind, g);
}

bool IsValidReachabilitySpec(std::string_view spec) {
  // file:, mmap: and cluster: cannot serve beneath sharded:: a persisted
  // index or map is fingerprinted against the whole graph, not a shard
  // subgraph.
  bool under_sharded = false;
  while (spec.rfind(kShardedPrefix, 0) == 0) {
    under_sharded = true;
    spec = spec.substr(kShardedPrefix.size());
  }
  // mmap: is file: with a zero-copy loader; same composition rules.
  for (const std::string_view prefix : {kFilePrefix, kMmapPrefix}) {
    if (spec.rfind(prefix, 0) == 0) {
      return !under_sharded &&
             storage::InspectReachabilityIndex(
                 std::string(spec.substr(prefix.size())))
                 .ok();
    }
  }
  // cluster: shares file:'s composition rules. Validity here means the
  // map parses — whether the shard servers are up is only knowable at
  // build time.
  if (spec.rfind(kClusterPrefix, 0) == 0) {
    if (under_sharded) return false;
    std::string map_path;
    std::vector<std::string> endpoints;
    SplitClusterSpec(spec.substr(kClusterPrefix.size()), &map_path,
                     &endpoints);
    return cluster::LoadPartitionMap(map_path).ok();
  }
  return ParseReachabilityBackend(spec).has_value();
}

std::vector<std::string> AllReachabilitySpecs() {
  std::vector<std::string> specs;
  for (ReachabilityBackend kind : AllReachabilityBackends()) {
    specs.emplace_back(ReachabilityBackendName(kind));
  }
  for (ReachabilityBackend kind : AllReachabilityBackends()) {
    specs.push_back(std::string(kShardedPrefix) +
                    std::string(ReachabilityBackendName(kind)));
  }
  return specs;
}

}  // namespace gtpq

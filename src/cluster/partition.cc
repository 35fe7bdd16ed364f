#include "cluster/partition.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "graph/graph_io.h"
#include "reachability/sharded_oracle.h"
#include "storage/index_io.h"

namespace gtpq {
namespace cluster {

std::vector<size_t> PlanContiguousCuts(const Digraph& g,
                                       const PartitionPlanOptions& plan) {
  GTPQ_CHECK(g.finalized());
  const size_t n = g.NumNodes();
  const size_t shards =
      std::max<size_t>(1, std::min(plan.num_shards, std::max<size_t>(n, 1)));
  std::vector<size_t> cuts(shards + 1);
  for (size_t s = 0; s <= shards; ++s) cuts[s] = s * n / shards;
  if (!plan.degree_aware || shards == 1 || n == 0) return cuts;

  // cost[p] = edges (u, v) with min(u, v) < p <= max(u, v) — exactly
  // the edges severed by a cut at p. Computed once for every position
  // with a difference array: +1 at min+1, -1 at max+1, prefix-summed.
  std::vector<int64_t> diff(n + 2, 0);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.OutNeighbors(u)) {
      const size_t lo = std::min<size_t>(u, v);
      const size_t hi = std::max<size_t>(u, v);
      if (lo == hi) continue;  // self-loops cross nothing
      ++diff[lo + 1];
      --diff[hi + 1];
    }
  }
  std::vector<int64_t> cost(n + 1, 0);
  int64_t running = 0;
  for (size_t p = 0; p <= n; ++p) {
    running += diff[p];
    cost[p] = running;
  }

  // Slide each interior cut to the cheapest position inside its slack
  // window, left to right, keeping cuts strictly monotone so no shard
  // collapses below the previous cut.
  const size_t target = n / shards;
  const size_t slack = static_cast<size_t>(
      static_cast<double>(target) * std::max(0.0, plan.balance_slack));
  for (size_t s = 1; s < shards; ++s) {
    const size_t ideal = s * n / shards;
    const size_t lo = std::max(cuts[s - 1] + 1,
                               ideal > slack ? ideal - slack : size_t{1});
    const size_t hi = std::min(n - (shards - s), ideal + slack);
    if (lo > hi) continue;  // window squeezed shut; keep the equal cut
    size_t best = std::clamp(ideal, lo, hi);
    for (size_t p = lo; p <= hi; ++p) {
      if (cost[p] < cost[best]) best = p;
    }
    cuts[s] = best;
  }
  return cuts;
}

Result<PartitionArtifacts> BuildPartition(
    const DataGraph& g, const BuildPartitionOptions& options,
    const std::string& out_dir) {
  const size_t n = g.NumNodes();
  if (n == 0) {
    return Status::InvalidArgument("cannot partition an empty graph");
  }
  if (!options.endpoints.empty() &&
      options.endpoints.size() != options.plan.num_shards) {
    return Status::InvalidArgument(
        "endpoint count (" + std::to_string(options.endpoints.size()) +
        ") does not match the shard count (" +
        std::to_string(options.plan.num_shards) + ")");
  }

  const std::vector<size_t> cuts = PlanContiguousCuts(g.graph(), options.plan);
  const size_t shards = cuts.size() - 1;

  // One ShardedOracle build yields every piece the map replicates:
  // per-shard sub-indexes, boundary vertices, cross edges, overlay
  // contributions, and the closure — with semantics byte-identical to
  // the in-process `sharded:` decorator the tests differentiate against.
  ShardedOracleOptions oracle_options;
  oracle_options.num_shards = shards;
  oracle_options.inner_spec = options.inner_spec;
  oracle_options.custom_starts = cuts;
  ShardedOracle oracle(g.graph(), oracle_options);

  PartitionArtifacts out;
  out.map.graph_fingerprint = storage::GraphFingerprint(g.graph());
  out.map.num_nodes = n;
  out.map.num_edges = g.NumEdges();
  out.map.inner_spec = options.inner_spec;
  out.map.set_layout(oracle.layout());
  out.map.endpoints = options.endpoints.empty()
                          ? std::vector<std::string>(shards)
                          : options.endpoints;

  for (size_t s = 0; s < shards; ++s) {
    const size_t begin = cuts[s], end = cuts[s + 1];
    // Induced local subgraph with local ids [0, end - begin). Node and
    // edge insertion order mirrors ShardedOracle's shard build exactly, so
    // the local fingerprint matches the sub-index the oracle built.
    DataGraph local(0);
    for (size_t v = begin; v < end; ++v) {
      local.AddNode(g.LabelOf(static_cast<NodeId>(v)));
    }
    for (size_t v = begin; v < end; ++v) {
      for (NodeId w : g.OutNeighbors(static_cast<NodeId>(v))) {
        if (w >= begin && w < end) {
          local.AddEdge(static_cast<NodeId>(v - begin),
                        static_cast<NodeId>(w - begin));
        }
      }
    }
    local.Finalize();
    out.map.shard_fingerprints.push_back(
        storage::GraphFingerprint(local.graph()));

    const std::string stem = out_dir + "/shard" + std::to_string(s);
    const std::string graph_path = stem + ".graph";
    const std::string index_path = stem + std::string(
        storage::kIndexFileExtension);
    GTPQ_RETURN_NOT_OK(SaveDataGraphToFile(local, graph_path));
    GTPQ_RETURN_NOT_OK(storage::SaveReachabilityIndex(
        oracle.shard_index(s), local.graph(), index_path));
    out.graph_paths.push_back(graph_path);
    out.index_paths.push_back(index_path);
  }

  out.map_path = out_dir + "/cluster" + std::string(kMapFileExtension);
  GTPQ_RETURN_NOT_OK(SavePartitionMap(out.map, out.map_path));
  GTPQ_RETURN_NOT_OK(out.map.Validate());
  for (size_t s = 0; s < shards; ++s) {
    GTPQ_RETURN_NOT_OK(VerifyShardIndex(out.map, s, out.index_paths[s]));
  }
  return out;
}

}  // namespace cluster
}  // namespace gtpq

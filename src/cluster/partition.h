#ifndef GTPQ_CLUSTER_PARTITION_H_
#define GTPQ_CLUSTER_PARTITION_H_

#include <cstddef>
#include <string>
#include <vector>

#include "cluster/partition_map.h"
#include "common/status.h"
#include "graph/data_graph.h"

namespace gtpq {
namespace cluster {

struct PartitionPlanOptions {
  size_t num_shards = 3;
  /// When true, slide each equal cut within the balance window to the
  /// position crossed by the fewest edges; false keeps plain equal
  /// cuts (EqualShardCuts).
  bool degree_aware = true;
  /// How far (as a fraction of n / num_shards) a degree-aware cut may
  /// drift from its equal-cut position.
  double balance_slack = 0.25;
};

/// Plans contiguous shard cuts over a finalized graph: num_shards + 1
/// monotone cut points, first 0, last n. Degree-aware planning
/// minimizes the number of edges crossing each cut — in a cluster,
/// boundary size is wire traffic per probe, not just overlay memory —
/// via an exact per-position span count (an edge (u, v) crosses cut p
/// iff min < p <= max) and an argmin slide within the slack window.
/// The cuts feed ShardedOracleOptions::custom_starts, and the
/// PartitionMap takes that oracle's layout, so oracle and map agree.
std::vector<size_t> PlanContiguousCuts(const Digraph& g,
                                       const PartitionPlanOptions& plan);

struct BuildPartitionOptions {
  PartitionPlanOptions plan;
  /// Factory spec each shard's .gtpqidx is built from.
  std::string inner_spec = "interval";
  /// Per-shard endpoints baked into the map ("host:port"); sized
  /// num_shards or empty (route time must then supply them).
  std::vector<std::string> endpoints;
};

/// Everything `gteactl partition` writes into its output directory.
struct PartitionArtifacts {
  PartitionMap map;
  std::string map_path;
  std::vector<std::string> graph_paths;  // shard<k>.graph per shard
  std::vector<std::string> index_paths;  // shard<k>.gtpqidx per shard
};

/// Partitions `g`: plans cuts, builds the boundary machinery (through
/// ShardedOracle, so in-process `sharded:` and the cluster agree on
/// semantics), then writes per-shard induced subgraphs (ShardSubgraph,
/// as "gtpq-graph v2" files), per-shard indexes (.gtpqidx over the LOCAL subgraph, so a
/// plain `gteactl serve --graph=shardK.graph --index=file:shardK
/// .gtpqidx` serves it), and the .gtpqmap into `out_dir` (which must
/// exist).
Result<PartitionArtifacts> BuildPartition(
    const DataGraph& g, const BuildPartitionOptions& options,
    const std::string& out_dir);

}  // namespace cluster
}  // namespace gtpq

#endif  // GTPQ_CLUSTER_PARTITION_H_

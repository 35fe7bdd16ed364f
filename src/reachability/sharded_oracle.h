#ifndef GTPQ_REACHABILITY_SHARDED_ORACLE_H_
#define GTPQ_REACHABILITY_SHARDED_ORACLE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "reachability/boundary_closure.h"

namespace gtpq {

namespace storage {
class Writer;
class Reader;
}  // namespace storage

/// Tuning knobs for ShardedOracle.
struct ShardedOracleOptions {
  /// Vertex partitions (clamped to the node count).
  size_t num_shards = 4;
  /// Factory spec of the per-shard sub-index (any MakeReachabilityIndex
  /// spec, decorators included).
  std::string inner_spec = "interval";
  /// Explicit contiguous cut points (num_shards + 1 values: first 0,
  /// last the node count, strictly derived ranges must be monotone).
  /// Empty = EqualShardCuts. The cluster partitioner
  /// passes degree-aware cuts here (cluster/partition.h) so the oracle
  /// and the partition map agree on shard assignment.
  std::vector<size_t> custom_starts;
};

/// Equal contiguous cuts s * n / shards for s in [0, shards], with the
/// shard count clamped to [1, max(n, 1)].
std::vector<size_t> EqualShardCuts(size_t n, size_t num_shards);

/// The induced subgraph of `g` on the id range [begin, end), with local
/// ids v - begin: what a shard's sub-index is built over. The cluster
/// partitioner writes the same subgraph into each shard's graph file,
/// so the shard fingerprints match the sub-indexes.
Digraph ShardSubgraph(const Digraph& g, size_t begin, size_t end);

/// Partitioned reachability: vertices are split into contiguous-range
/// shards, each carrying an independent sub-index over its induced
/// subgraph; paths that cross shards are answered through the boundary
/// overlay of BoundaryClosure, which also supplies the whole native
/// set-reachability API. This class is its in-process prober: a shard
/// probe is answered by the shard's sub-index (AnswerShardProbe). The
/// cluster partitioner builds one to cut a graph into shard indexes and
/// a partition map. The conformance suite checks it against the
/// materialized closure like any base backend.
class ShardedOracle : public BoundaryClosure {
 public:
  ShardedOracle(const Digraph& g, ShardedOracleOptions options = {});

  std::string_view name() const override { return name_; }

  const ReachabilityOracle& shard_index(size_t shard) const {
    return *sub_[shard];
  }

  /// Persistence hooks (storage/index_io.h): the section carries the
  /// inner spec, the BoundaryLayout (its codec; load validates it), and
  /// one nested sub-index section per shard, so a load reconstructs the
  /// oracle without touching the graph.
  void SaveBody(storage::Writer* w) const;
  static Result<std::unique_ptr<ShardedOracle>> LoadBody(
      storage::Reader* r);

 protected:
  Status ProbeShards(std::span<ShardProbe> probes) const override;

 private:
  ShardedOracle() = default;

  std::string inner_spec_;
  std::string name_;
  std::vector<std::unique_ptr<ReachabilityOracle>> sub_;
};

}  // namespace gtpq

#endif  // GTPQ_REACHABILITY_SHARDED_ORACLE_H_

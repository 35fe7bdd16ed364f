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
  /// Empty = equal cuts s * n / num_shards. The cluster partitioner
  /// passes degree-aware cuts here (cluster/partition.h) so the oracle
  /// and the partition map agree on shard assignment.
  std::vector<size_t> custom_starts;
};

/// Partitioned reachability: vertices are split into contiguous-range
/// shards, each carrying an independent sub-index over its induced
/// subgraph; paths that cross shards are answered through the boundary
/// overlay of BoundaryClosure, which also supplies the whole native
/// set-reachability API. This class is its in-process prober: a shard
/// probe is answered by the shard's sub-index (AnswerShardProbe). The
/// point is build economics on large graphs — when data changes land
/// in one partition, only that shard's sub-index (plus the small
/// overlay closure) is rebuilt (RebuildShard), instead of relabeling
/// the whole graph. The conformance suite checks it against the
/// materialized closure like any base backend.
class ShardedOracle : public BoundaryClosure {
 public:
  ShardedOracle(const Digraph& g, ShardedOracleOptions options = {});

  std::string_view name() const override { return name_; }

  size_t ShardSize(size_t shard) const {
    return shard_starts()[shard + 1] - shard_starts()[shard];
  }
  const ReachabilityOracle& shard_index(size_t shard) const {
    return *sub_[shard];
  }

  /// Rebuilds one shard's sub-index and the overlay rows it
  /// contributes, leaving every other shard's labeling untouched. `g`
  /// must have the same node count and shard-crossing edges as the
  /// graph the oracle was built from (intra-shard edits only).
  ///
  /// NOT thread-safe with concurrent probes: rebuilding swaps the
  /// shard's sub-index in place. Quiesce every reader first (e.g. drain
  /// the QueryServer batch, or rebuild into a fresh oracle and swap the
  /// shared_ptr at the serving layer).
  void RebuildShard(const Digraph& g, size_t shard);

  /// Persistence hooks (storage/index_io.h): the body carries the shard
  /// layout, one nested sub-index section per shard, the boundary
  /// machinery, and the overlay closure, so a load reconstructs the
  /// oracle without touching the graph.
  void SaveBody(storage::Writer* w) const;
  static Result<std::unique_ptr<ShardedOracle>> LoadBody(
      storage::Reader* r);

 protected:
  Status ProbeShards(std::span<ShardProbe> probes) const override;

 private:
  ShardedOracle() = default;

  void BuildShard(const Digraph& g, size_t shard);

  std::string inner_spec_;
  std::string name_;
  std::vector<std::unique_ptr<ReachabilityOracle>> sub_;
};

}  // namespace gtpq

#endif  // GTPQ_REACHABILITY_SHARDED_ORACLE_H_

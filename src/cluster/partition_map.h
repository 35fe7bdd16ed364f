#ifndef GTPQ_CLUSTER_PARTITION_MAP_H_
#define GTPQ_CLUSTER_PARTITION_MAP_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "reachability/boundary_closure.h"
#include "storage/checked_file.h"

namespace gtpq {
namespace cluster {

/// On-disk layout of a ".gtpqmap" cluster partition map (all scalars
/// little-endian; the prologue is storage/checked_file.h's):
///
///   [0..8)    magic "GTPQMAP\n"
///   [8..12)   u32 format version (kMapFormatVersion)
///   [12..16)  u32 CRC-32 over every byte from offset 16 to EOF
///   [16..)    body (storage Writer/Reader, pod_align layout):
///               u64     full-graph fingerprint (storage::GraphFingerprint)
///               u64     num nodes, u64 num edges of that graph
///               string  per-shard index spec ("interval", ...)
///               u64 E + E x string  shard endpoints ("host:port")
///               vec     u64 fingerprint of each shard's induced local
///                       subgraph (what its .gtpqidx is stamped with)
///               ...     BoundaryLayout codec: cut points, boundary
///                       vertices, cross edges, per-shard overlay
///                       contributions, and the overlay closure
///
/// The map is everything a router needs to answer cross-shard
/// reachability without touching a shard: range ownership for id
/// translation, the boundary overlay closure for exit->entry hops, and
/// the per-shard contributions + cross edges to REBUILD that closure
/// after a routed update changes one shard's boundary connectivity.
///
/// Load rejects, with a clean Status: wrong magic, version mismatch,
/// checksum mismatch, and every map Validate rejects. Save writes the
/// struct verbatim (no validation), so tests can author bad maps, and
/// replaces the file atomically against a killed process.
inline constexpr std::string_view kMapMagic = "GTPQMAP\n";
inline constexpr uint32_t kMapFormatVersion = 2;
inline constexpr std::string_view kMapFileExtension = ".gtpqmap";
inline constexpr storage::FileFormat kMapFormat{kMapMagic, kMapFormatVersion,
                                                "partition map"};

/// One shard's contiguous global-vertex range [begin, end).
struct ShardRange {
  uint64_t begin = 0;
  uint64_t end = 0;
};

struct PartitionMap {
  uint64_t graph_fingerprint = 0;
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  /// Factory spec of every shard's index (the partitioner builds one
  /// sub-index per shard from this).
  std::string inner_spec = "interval";
  /// The shards' ranges, as set_layout fills them from the cut points.
  std::vector<ShardRange> ranges;
  /// Per-shard serving endpoint ("host:port"); may be overridden at
  /// route time.
  std::vector<std::string> endpoints;
  /// GraphFingerprint of each shard's induced local subgraph — what the
  /// shard's own .gtpqidx must be stamped with.
  std::vector<uint64_t> shard_fingerprints;
  /// Cut points and boundary machinery (what ShardedOracle built).
  BoundaryLayout layout;

  size_t num_shards() const { return ranges.size(); }
  /// Installs `layout` and fills `ranges` from its cut points.
  void set_layout(BoundaryLayout layout);

  /// Structural consistency: the layout passes BoundaryLayout::Validate,
  /// its cut points end at num_nodes, and the per-shard vectors (ranges
  /// included) are sized by its shard count. Load runs this; builders
  /// may too.
  Status Validate() const;
};

Status SavePartitionMap(const PartitionMap& map, const std::string& path);
Result<PartitionMap> LoadPartitionMap(const std::string& path);

/// Rejects (FailedPrecondition) when the shard's persisted index at
/// `index_path` is stamped with a different subgraph fingerprint than
/// the map expects — the map and the index were built from different
/// partitionings or graphs and must not serve together.
Status VerifyShardIndex(const PartitionMap& map, size_t shard,
                        const std::string& index_path);

}  // namespace cluster
}  // namespace gtpq

#endif  // GTPQ_CLUSTER_PARTITION_MAP_H_

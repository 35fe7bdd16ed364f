#include "cluster/partition_map.h"

#include "storage/index_io.h"
#include "storage/serializer.h"

namespace gtpq {
namespace cluster {

void PartitionMap::set_layout(BoundaryLayout new_layout) {
  layout = std::move(new_layout);
  ranges.clear();
  for (size_t s = 0; s + 1 < layout.shard_starts.size(); ++s) {
    ranges.push_back({layout.shard_starts[s], layout.shard_starts[s + 1]});
  }
}

Status PartitionMap::Validate() const {
  GTPQ_RETURN_NOT_OK(layout.Validate());
  if (layout.shard_starts.back() != num_nodes) {
    return Status::ParseError(
        "partition map covers " +
        std::to_string(layout.shard_starts.back()) + " of " +
        std::to_string(num_nodes) + " vertices");
  }
  if (ranges.size() + 1 != layout.shard_starts.size() ||
      endpoints.size() != ranges.size() ||
      shard_fingerprints.size() != ranges.size()) {
    return Status::ParseError(
        "partition map per-shard vectors disagree on the shard count");
  }
  return Status::OK();
}

Status SavePartitionMap(const PartitionMap& map, const std::string& path) {
  storage::Writer body;
  body.set_pod_align(true);
  body.WriteU64(map.graph_fingerprint);
  body.WriteU64(map.num_nodes);
  body.WriteU64(map.num_edges);
  body.WriteString(map.inner_spec);
  body.WriteU64(map.endpoints.size());
  for (const std::string& endpoint : map.endpoints) {
    body.WriteString(endpoint);
  }
  body.WritePodVec(map.shard_fingerprints);
  map.layout.Save(&body);
  return storage::WriteChecksummedFile(path, kMapFormat, {body.buffer()});
}

Result<PartitionMap> LoadPartitionMap(const std::string& path) {
  std::string bytes;
  auto body = storage::ReadChecksummedFile(path, kMapFormat, &bytes);
  GTPQ_RETURN_NOT_OK(body.status());
  storage::Reader r(*body);
  r.set_pod_align(true);
  PartitionMap map;
  GTPQ_RETURN_NOT_OK(r.ReadU64(&map.graph_fingerprint));
  GTPQ_RETURN_NOT_OK(r.ReadU64(&map.num_nodes));
  GTPQ_RETURN_NOT_OK(r.ReadU64(&map.num_edges));
  GTPQ_RETURN_NOT_OK(r.ReadString(&map.inner_spec));
  uint64_t num_endpoints = 0;
  GTPQ_RETURN_NOT_OK(r.ReadU64(&num_endpoints));
  // Every endpoint costs at least its u32 length prefix.
  if (num_endpoints > r.remaining() / 4) {
    return Status::ParseError("partition map endpoint count is implausible");
  }
  map.endpoints.resize(static_cast<size_t>(num_endpoints));
  for (std::string& endpoint : map.endpoints) {
    GTPQ_RETURN_NOT_OK(r.ReadString(&endpoint));
  }
  GTPQ_RETURN_NOT_OK(r.ReadPodVec(&map.shard_fingerprints));
  BoundaryLayout layout;
  GTPQ_RETURN_NOT_OK(BoundaryLayout::Load(&r, &layout));
  map.set_layout(std::move(layout));
  GTPQ_RETURN_NOT_OK(r.ExpectEnd());
  GTPQ_RETURN_NOT_OK(map.Validate());
  return map;
}

Status VerifyShardIndex(const PartitionMap& map, size_t shard,
                        const std::string& index_path) {
  if (shard >= map.num_shards()) {
    return Status::InvalidArgument("shard " + std::to_string(shard) +
                                   " does not exist in the map");
  }
  auto info = storage::InspectReachabilityIndex(index_path);
  GTPQ_RETURN_NOT_OK(info.status());
  if (info->graph_fingerprint != map.shard_fingerprints[shard]) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(shard) +
        " index was built for a different subgraph (index fingerprint " +
        std::to_string(info->graph_fingerprint) + ", map expects " +
        std::to_string(map.shard_fingerprints[shard]) + "): " + index_path);
  }
  return Status::OK();
}

}  // namespace cluster
}  // namespace gtpq

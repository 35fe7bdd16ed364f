#include "cluster/partition_map.h"

#include <algorithm>
#include <fstream>
#include <iterator>

#include "storage/index_io.h"
#include "storage/serializer.h"

namespace gtpq {
namespace cluster {

namespace {

using storage::Reader;
using storage::Writer;

constexpr size_t kVersionOffset = 8;
constexpr size_t kChecksummedOffset = 16;

std::vector<uint32_t> FlattenPairs(
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs) {
  std::vector<uint32_t> flat;
  flat.reserve(pairs.size() * 2);
  for (const auto& [a, b] : pairs) {
    flat.push_back(a);
    flat.push_back(b);
  }
  return flat;
}

Status UnflattenPairs(std::vector<uint32_t> flat,
                      std::vector<std::pair<uint32_t, uint32_t>>* out) {
  if (flat.size() % 2 != 0) {
    return Status::ParseError("odd-length pair run in partition map");
  }
  out->clear();
  out->reserve(flat.size() / 2);
  for (size_t i = 0; i < flat.size(); i += 2) {
    out->emplace_back(flat[i], flat[i + 1]);
  }
  return Status::OK();
}

}  // namespace

size_t PartitionMap::ShardOf(NodeId v) const {
  // Ranges tile [0, n) in ascending order (Validate enforces it), so
  // binary search on begin finds the candidate range directly.
  const auto it = std::upper_bound(
      ranges.begin(), ranges.end(), static_cast<uint64_t>(v),
      [](uint64_t value, const ShardRange& r) { return value < r.begin; });
  if (it == ranges.begin()) return num_shards();
  const size_t s = static_cast<size_t>(it - ranges.begin()) - 1;
  return v < ranges[s].end ? s : num_shards();
}

Status PartitionMap::Validate() const {
  if (ranges.empty()) {
    return Status::ParseError("partition map has no shards");
  }
  if (endpoints.size() != ranges.size() ||
      shard_fingerprints.size() != ranges.size() ||
      shard_overlay.size() != ranges.size()) {
    return Status::ParseError(
        "partition map per-shard vectors disagree on the shard count");
  }
  if (ranges.front().begin != 0) {
    return Status::ParseError(
        "partition map leaves vertex 0 uncovered (first range starts at " +
        std::to_string(ranges.front().begin) + ")");
  }
  for (size_t s = 0; s < ranges.size(); ++s) {
    if (ranges[s].begin > ranges[s].end) {
      return Status::ParseError("partition map shard " + std::to_string(s) +
                                " has an inverted range");
    }
    if (s + 1 < ranges.size()) {
      if (ranges[s + 1].begin < ranges[s].end) {
        return Status::ParseError(
            "partition map shards " + std::to_string(s) + " and " +
            std::to_string(s + 1) + " have overlapping ranges");
      }
      if (ranges[s + 1].begin > ranges[s].end) {
        return Status::ParseError(
            "partition map leaves vertex " + std::to_string(ranges[s].end) +
            " uncovered (gap between shards " + std::to_string(s) + " and " +
            std::to_string(s + 1) + ")");
      }
    }
  }
  if (ranges.back().end != num_nodes) {
    return Status::ParseError(
        "partition map covers " + std::to_string(ranges.back().end) +
        " of " + std::to_string(num_nodes) + " vertices");
  }
  for (size_t i = 0; i < boundary.size(); ++i) {
    if (boundary[i] >= num_nodes) {
      return Status::ParseError("partition map boundary vertex " +
                                std::to_string(boundary[i]) +
                                " is out of range");
    }
    if (i > 0 && boundary[i] <= boundary[i - 1]) {
      return Status::ParseError(
          "partition map boundary vertices are not strictly ascending");
    }
  }
  const uint32_t num_boundary = static_cast<uint32_t>(boundary.size());
  for (const auto& [x, y] : cross_edges) {
    if (!std::binary_search(boundary.begin(), boundary.end(), x) ||
        !std::binary_search(boundary.begin(), boundary.end(), y)) {
      return Status::ParseError(
          "partition map cross edge does not join two boundary vertices");
    }
  }
  for (const auto& overlay : shard_overlay) {
    for (const auto& [b1, b2] : overlay) {
      if (b1 >= num_boundary || b2 >= num_boundary) {
        return Status::ParseError(
            "partition map overlay contribution indexes a boundary vertex "
            "that does not exist");
      }
    }
  }
  if (overlay_closure == nullptr) {
    return Status::ParseError("partition map is missing the overlay closure");
  }
  if (overlay_closure->NumNodes() != boundary.size()) {
    return Status::ParseError(
        "partition map overlay closure does not cover the boundary");
  }
  return Status::OK();
}

Status SavePartitionMap(const PartitionMap& map, const std::string& path) {
  if (map.overlay_closure == nullptr) {
    return Status::InvalidArgument(
        "partition map needs an overlay closure before saving (an empty "
        "boundary still has an empty closure)");
  }
  Writer body;
  body.set_pod_align(true);
  body.WriteU64(map.graph_fingerprint);
  body.WriteU64(map.num_nodes);
  body.WriteU64(map.num_edges);
  body.WriteString(map.inner_spec);
  body.WriteU64(map.ranges.size());
  for (const ShardRange& r : map.ranges) {
    body.WriteU64(r.begin);
    body.WriteU64(r.end);
  }
  for (const std::string& endpoint : map.endpoints) {
    body.WriteString(endpoint);
  }
  for (const uint64_t fp : map.shard_fingerprints) body.WriteU64(fp);
  body.WritePodVec(map.boundary);
  body.WritePodVec(FlattenPairs(map.cross_edges));
  for (const auto& overlay : map.shard_overlay) {
    body.WritePodVec(FlattenPairs(overlay));
  }
  map.overlay_closure->SaveBody(&body);

  const uint32_t crc =
      storage::Crc32(body.buffer().data(), body.buffer().size());
  Writer prologue;
  prologue.WriteBytes(kMapMagic.data(), kMapMagic.size());
  prologue.WriteU32(kMapFormatVersion);
  prologue.WriteU32(crc);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::NotFound("cannot create map file: " + path);
  out.write(prologue.buffer().data(),
            static_cast<std::streamsize>(prologue.buffer().size()));
  out.write(body.buffer().data(),
            static_cast<std::streamsize>(body.buffer().size()));
  out.close();
  if (!out) return Status::Internal("write failed: " + path);
  return Status::OK();
}

Result<PartitionMap> LoadPartitionMap(const std::string& path) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::NotFound("cannot open map file: " + path);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    if (in.bad()) return Status::Internal("read failed: " + path);
  }
  if (bytes.size() < kChecksummedOffset) {
    return Status::ParseError("map file too short (" +
                              std::to_string(bytes.size()) + " bytes): " +
                              path);
  }
  if (std::string_view(bytes.data(), kMapMagic.size()) != kMapMagic) {
    return Status::ParseError("bad magic: not a gtpq partition map: " +
                              path);
  }
  Reader prologue(std::string_view(bytes.data() + kVersionOffset,
                                   kChecksummedOffset - kVersionOffset));
  uint32_t version = 0, stored_crc = 0;
  GTPQ_RETURN_NOT_OK(prologue.ReadU32(&version));
  GTPQ_RETURN_NOT_OK(prologue.ReadU32(&stored_crc));
  if (version != kMapFormatVersion) {
    return Status::FailedPrecondition(
        "map format version mismatch: file has v" + std::to_string(version) +
        ", this build reads v" + std::to_string(kMapFormatVersion) + ": " +
        path);
  }
  const uint32_t actual_crc =
      storage::Crc32(bytes.data() + kChecksummedOffset,
                     bytes.size() - kChecksummedOffset);
  if (actual_crc != stored_crc) {
    return Status::ParseError(
        "map checksum mismatch (truncated or corrupted file): " + path);
  }

  Reader r(std::string_view(bytes).substr(kChecksummedOffset));
  r.set_pod_align(true);
  PartitionMap map;
  GTPQ_RETURN_NOT_OK(r.ReadU64(&map.graph_fingerprint));
  GTPQ_RETURN_NOT_OK(r.ReadU64(&map.num_nodes));
  GTPQ_RETURN_NOT_OK(r.ReadU64(&map.num_edges));
  GTPQ_RETURN_NOT_OK(r.ReadString(&map.inner_spec));
  uint64_t num_shards = 0;
  GTPQ_RETURN_NOT_OK(r.ReadU64(&num_shards));
  // Every shard costs at least its two range words.
  if (num_shards > r.remaining() / 16) {
    return Status::ParseError("map shard count is implausible");
  }
  map.ranges.resize(static_cast<size_t>(num_shards));
  for (ShardRange& range : map.ranges) {
    GTPQ_RETURN_NOT_OK(r.ReadU64(&range.begin));
    GTPQ_RETURN_NOT_OK(r.ReadU64(&range.end));
  }
  map.endpoints.resize(map.ranges.size());
  for (std::string& endpoint : map.endpoints) {
    GTPQ_RETURN_NOT_OK(r.ReadString(&endpoint));
  }
  map.shard_fingerprints.resize(map.ranges.size());
  for (uint64_t& fp : map.shard_fingerprints) {
    GTPQ_RETURN_NOT_OK(r.ReadU64(&fp));
  }
  GTPQ_RETURN_NOT_OK(r.ReadPodVec(&map.boundary));
  std::vector<uint32_t> flat;
  GTPQ_RETURN_NOT_OK(r.ReadPodVec(&flat));
  GTPQ_RETURN_NOT_OK(UnflattenPairs(std::move(flat), &map.cross_edges));
  map.shard_overlay.resize(map.ranges.size());
  for (auto& overlay : map.shard_overlay) {
    flat.clear();
    GTPQ_RETURN_NOT_OK(r.ReadPodVec(&flat));
    GTPQ_RETURN_NOT_OK(UnflattenPairs(std::move(flat), &overlay));
  }
  auto closure = TransitiveClosure::LoadBody(&r);
  GTPQ_RETURN_NOT_OK(closure.status());
  map.overlay_closure =
      std::make_shared<const TransitiveClosure>(closure.TakeValue());
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

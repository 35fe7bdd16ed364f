#include "reachability/sharded_oracle.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "common/logging.h"
#include "reachability/factory.h"
#include "storage/index_io.h"

namespace gtpq {

ShardedOracle::ShardedOracle(const Digraph& g, ShardedOracleOptions options)
    : inner_spec_(std::move(options.inner_spec)),
      name_("sharded:" + inner_spec_) {
  GTPQ_CHECK(g.finalized());
  const size_t n = g.NumNodes();
  const size_t num_shards = std::max<size_t>(
      1, std::min(options.num_shards, std::max<size_t>(n, 1)));

  BoundaryLayout layout;
  if (!options.custom_starts.empty()) {
    GTPQ_CHECK(options.custom_starts.size() == num_shards + 1)
        << "custom_starts must carry num_shards + 1 cut points";
    GTPQ_CHECK(options.custom_starts.front() == 0 &&
               options.custom_starts.back() == n)
        << "custom_starts must span [0, n)";
    for (size_t s = 0; s < num_shards; ++s) {
      GTPQ_CHECK(options.custom_starts[s] <= options.custom_starts[s + 1])
          << "custom_starts must be monotone";
    }
    layout.shard_starts = options.custom_starts;
  } else {
    layout.shard_starts.resize(num_shards + 1);
    for (size_t s = 0; s <= num_shards; ++s) {
      layout.shard_starts[s] = s * n / num_shards;
    }
  }
  const auto shard_of = [&layout](NodeId v) {
    return std::upper_bound(layout.shard_starts.begin(),
                            layout.shard_starts.end(),
                            static_cast<size_t>(v)) -
           layout.shard_starts.begin();
  };

  // Boundary vertices: endpoints of shard-crossing edges, in id order.
  std::vector<char> is_boundary(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId w : g.OutNeighbors(v)) {
      if (shard_of(v) != shard_of(w)) {
        layout.cross_edges.emplace_back(v, w);
        is_boundary[v] = 1;
        is_boundary[w] = 1;
      }
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (is_boundary[v]) layout.boundary.push_back(v);
  }
  GTPQ_CHECK_OK(InitBoundaries(std::move(layout)));

  sub_.resize(num_shards);
  for (size_t s = 0; s < num_shards; ++s) BuildShard(g, s);
  std::vector<size_t> all(num_shards);
  std::iota(all.begin(), all.end(), size_t{0});
  GTPQ_CHECK_OK(RefreshContributions(all));
}

void ShardedOracle::BuildShard(const Digraph& g, size_t shard) {
  const size_t start = shard_starts()[shard];
  const size_t end = shard_starts()[shard + 1];

  Digraph local(end - start);
  for (NodeId v = start; v < end; ++v) {
    for (NodeId w : g.OutNeighbors(v)) {
      if (w >= start && w < end) {
        local.AddEdge(LocalId(v, shard), LocalId(w, shard));
      }
    }
  }
  local.Finalize();
  sub_[shard] = MakeReachabilityIndex(inner_spec_, local);
  GTPQ_CHECK(sub_[shard] != nullptr);
}

void ShardedOracle::RebuildShard(const Digraph& g, size_t shard) {
  GTPQ_CHECK(shard < NumShards());
  GTPQ_CHECK(g.NumNodes() == shard_starts().back());
  BuildShard(g, shard);
  GTPQ_CHECK_OK(RefreshContributions({&shard, 1}));
}

Status ShardedOracle::ProbeShards(std::span<ShardProbe> probes) const {
  // Delta-samples each sub-index so #index aggregates the work of
  // whichever labelings the routed query actually touched.
  IndexStats& st = stats();
  for (ShardProbe& probe : probes) {
    const ReachabilityOracle& sub = *sub_[probe.shard];
    const uint64_t before = sub.stats().elements_looked_up;
    AnswerShardProbe(sub, probe.reverse, probe.pivots, probe.ids,
                     &probe.bits);
    st.elements_looked_up += sub.stats().elements_looked_up - before;
  }
  return Status::OK();
}

namespace {

// std::pair is not trivially copyable under libstdc++, so pair vectors
// are flattened to interleaved u32 runs for the pod-vector codec.
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

/// `bound` caps every value (exclusive).
Status UnflattenPairs(std::vector<uint32_t> flat, uint64_t bound,
                      std::vector<std::pair<uint32_t, uint32_t>>* out) {
  if (flat.size() % 2 != 0) {
    return Status::ParseError("odd-length pair run in sharded section");
  }
  out->clear();
  out->reserve(flat.size() / 2);
  for (size_t i = 0; i < flat.size(); i += 2) {
    if (flat[i] >= bound || flat[i + 1] >= bound) {
      return Status::ParseError("pair value out of range in sharded section");
    }
    out->emplace_back(flat[i], flat[i + 1]);
  }
  return Status::OK();
}

}  // namespace

void ShardedOracle::SaveBody(storage::Writer* w) const {
  const std::vector<NodeId>& boundary = boundary_vertices();
  const size_t n = shard_starts().back();
  // boundary_id (per vertex) and per-shard boundary lists are derived,
  // but stay in the body so the section layout is unchanged.
  std::vector<uint32_t> boundary_id(n, static_cast<uint32_t>(-1));
  std::vector<std::vector<uint32_t>> shard_boundaries(NumShards());
  for (uint32_t b = 0; b < boundary.size(); ++b) {
    boundary_id[boundary[b]] = b;
    shard_boundaries[ShardOf(boundary[b])].push_back(b);
  }
  w->WriteU64(NumShards());
  w->WriteString(inner_spec_);
  std::vector<uint64_t> starts(shard_starts().begin(), shard_starts().end());
  w->WritePodVec(starts);
  w->WritePodVec(boundary);
  w->WritePodVec(boundary_id);
  w->WriteNestedVec(shard_boundaries);
  w->WritePodVec(FlattenPairs(cross_edges()));
  const auto contributions = shard_overlay_contributions();
  w->WriteU64(contributions.size());
  for (const auto& contribution : contributions) {
    w->WritePodVec(FlattenPairs(contribution));
  }
  overlay_closure()->SaveBody(w);
  for (const auto& sub : sub_) {
    // Sub-indexes were built through the factory, so this dispatch
    // cannot hit an unknown spec.
    GTPQ_CHECK(storage::SaveOracleBody(*sub, w).ok());
  }
}

Result<std::unique_ptr<ShardedOracle>> ShardedOracle::LoadBody(
    storage::Reader* r) {
  auto oracle = std::unique_ptr<ShardedOracle>(new ShardedOracle());
  uint64_t num_shards = 0;
  GTPQ_RETURN_NOT_OK(r->ReadU64(&num_shards));
  GTPQ_RETURN_NOT_OK(r->ReadString(&oracle->inner_spec_));
  oracle->name_ = "sharded:" + oracle->inner_spec_;
  BoundaryLayout layout;
  std::vector<uint64_t> starts;
  GTPQ_RETURN_NOT_OK(r->ReadPodVec(&starts));
  layout.shard_starts.assign(starts.begin(), starts.end());
  GTPQ_RETURN_NOT_OK(r->ReadPodVec(&layout.boundary));
  std::vector<uint32_t> boundary_id;
  GTPQ_RETURN_NOT_OK(r->ReadPodVec(&boundary_id));
  std::vector<std::vector<uint32_t>> shard_boundaries;
  GTPQ_RETURN_NOT_OK(r->ReadNestedVec(&shard_boundaries));
  std::vector<uint32_t> flat;
  GTPQ_RETURN_NOT_OK(r->ReadPodVec(&flat));
  GTPQ_RETURN_NOT_OK(
      UnflattenPairs(std::move(flat), uint64_t{1} << 32, &layout.cross_edges));
  uint64_t num_overlays = 0;
  GTPQ_RETURN_NOT_OK(r->ReadU64(&num_overlays));
  if (num_overlays != num_shards) {
    return Status::ParseError("sharded section overlay count mismatch");
  }
  layout.contributions.resize(static_cast<size_t>(num_overlays));
  for (auto& contribution : layout.contributions) {
    flat.clear();
    GTPQ_RETURN_NOT_OK(r->ReadPodVec(&flat));
    GTPQ_RETURN_NOT_OK(
        UnflattenPairs(std::move(flat), layout.boundary.size(), &contribution));
  }
  auto closure = TransitiveClosure::LoadBody(r);
  GTPQ_RETURN_NOT_OK(closure.status());
  layout.closure =
      std::make_shared<const TransitiveClosure>(closure.TakeValue());

  // What InitBoundaries and the probes index without checks (cross
  // edges InitBoundaries checks itself, contributions the unflatten).
  const size_t b = layout.boundary.size();
  bool ok = num_shards > 0 && starts.size() == num_shards + 1 &&
            starts.front() == 0 &&
            std::is_sorted(starts.begin(), starts.end()) &&
            shard_boundaries.size() == num_shards &&
            layout.closure->NumNodes() == b &&
            std::adjacent_find(layout.boundary.begin(),
                               layout.boundary.end(),
                               std::greater_equal<NodeId>()) ==
                layout.boundary.end() &&
            (b == 0 || layout.boundary.back() < starts.back());
  if (!ok) return Status::ParseError("inconsistent sharded section layout");
  GTPQ_RETURN_NOT_OK(oracle->InitBoundaries(std::move(layout)));
  oracle->sub_.resize(static_cast<size_t>(num_shards));
  for (auto& sub : oracle->sub_) {
    auto loaded = storage::LoadOracleBody(oracle->inner_spec_, r);
    GTPQ_RETURN_NOT_OK(loaded.status());
    sub = loaded.TakeValue();
  }
  return oracle;
}

}  // namespace gtpq

#include "reachability/sharded_oracle.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "reachability/factory.h"
#include "storage/index_io.h"

namespace gtpq {

std::vector<size_t> EqualShardCuts(size_t n, size_t num_shards) {
  const size_t shards =
      std::max<size_t>(1, std::min(num_shards, std::max<size_t>(n, 1)));
  std::vector<size_t> cuts(shards + 1);
  for (size_t s = 0; s <= shards; ++s) cuts[s] = s * n / shards;
  return cuts;
}

Digraph ShardSubgraph(const Digraph& g, size_t begin, size_t end) {
  Digraph local(end - begin);
  for (size_t v = begin; v < end; ++v) {
    for (NodeId w : g.OutNeighbors(static_cast<NodeId>(v))) {
      if (w >= begin && w < end) {
        local.AddEdge(static_cast<NodeId>(v - begin),
                      static_cast<NodeId>(w - begin));
      }
    }
  }
  local.Finalize();
  return local;
}

ShardedOracle::ShardedOracle(const Digraph& g, ShardedOracleOptions options)
    : inner_spec_(std::move(options.inner_spec)),
      name_("sharded:" + inner_spec_) {
  GTPQ_CHECK(g.finalized());
  const size_t n = g.NumNodes();

  BoundaryLayout layout;
  layout.shard_starts = EqualShardCuts(n, options.num_shards);
  if (!options.custom_starts.empty()) {
    GTPQ_CHECK(options.custom_starts.size() == layout.shard_starts.size())
        << "custom_starts must carry num_shards + 1 cut points";
    GTPQ_CHECK(options.custom_starts.front() == 0 &&
               options.custom_starts.back() == n)
        << "custom_starts must span [0, n)";
    GTPQ_CHECK(std::is_sorted(options.custom_starts.begin(),
                              options.custom_starts.end()))
        << "custom_starts must be monotone";
    layout.shard_starts = options.custom_starts;
  }
  const size_t num_shards = layout.shard_starts.size() - 1;
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
  InitBoundaries(std::move(layout));

  // One sub-index per shard, over the shard's induced subgraph.
  for (size_t s = 0; s < num_shards; ++s) {
    sub_.push_back(MakeReachabilityIndex(
        inner_spec_,
        ShardSubgraph(g, shard_starts()[s], shard_starts()[s + 1])));
    GTPQ_CHECK(sub_.back() != nullptr);
  }
  std::vector<size_t> all(num_shards);
  std::iota(all.begin(), all.end(), size_t{0});
  GTPQ_CHECK_OK(RefreshContributions(all));
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

void ShardedOracle::SaveBody(storage::Writer* w) const {
  w->WriteString(inner_spec_);
  layout().Save(w);
  for (const auto& sub : sub_) {
    // Sub-indexes were built through the factory, so this dispatch
    // cannot hit an unknown spec.
    GTPQ_CHECK(storage::SaveOracleBody(*sub, w).ok());
  }
}

Result<std::unique_ptr<ShardedOracle>> ShardedOracle::LoadBody(
    storage::Reader* r) {
  auto oracle = std::unique_ptr<ShardedOracle>(new ShardedOracle());
  GTPQ_RETURN_NOT_OK(r->ReadString(&oracle->inner_spec_));
  oracle->name_ = "sharded:" + oracle->inner_spec_;
  BoundaryLayout layout;
  GTPQ_RETURN_NOT_OK(BoundaryLayout::Load(r, &layout));
  GTPQ_RETURN_NOT_OK(layout.Validate());
  oracle->InitBoundaries(std::move(layout));
  oracle->sub_.resize(oracle->NumShards());
  for (auto& sub : oracle->sub_) {
    auto loaded = storage::LoadOracleBody(oracle->inner_spec_, r);
    GTPQ_RETURN_NOT_OK(loaded.status());
    sub = loaded.TakeValue();
  }
  return oracle;
}

}  // namespace gtpq

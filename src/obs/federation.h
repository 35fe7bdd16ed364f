#ifndef GTPQ_OBS_FEDERATION_H_
#define GTPQ_OBS_FEDERATION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gtpq {
namespace obs {

/// Cross-process observability federation: binary codecs that carry a
/// whole registry (full histogram buckets, not rendered text) or a span
/// groups over the OBSERVE wire frame, plus the merge that folds N shard
/// snapshots into one cluster view. Histogram merging is exact by the
/// bucket-addition property of Histogram::Snapshot::Merge, so the
/// cluster-level _count/_bucket series equal what one process recording
/// every sample would have exported.

/// Binary metrics-snapshot codec: "GTPM" magic, u32 version, the three
/// series sections, and a trailing CRC-32 over everything before it.
/// Decode rejects truncation at any byte and any bit flip.
std::string EncodeMetricsSnapshot(const MetricsSnapshot& snapshot);
Status DecodeMetricsSnapshot(std::string_view bytes, MetricsSnapshot* out);

/// Binary span-dump codec ("GTPS" magic, same CRC framing): span
/// groups, one per process, each with its name and pid. A server
/// exports its own ring as one group, a router the stitched groups of
/// every process (ClusterObservable::CollectClusterSpans); the client
/// renders them with RenderChromeTrace.
std::string EncodeSpans(const std::vector<ProcessSpans>& groups);
Status DecodeSpans(std::string_view bytes, std::vector<ProcessSpans>* out);

/// One member's registry as scraped for a federated view.
struct MemberSnapshot {
  /// Value of the injected shard="..." label, e.g. "0".
  std::string shard_label;
  MetricsSnapshot snapshot;
};

/// Returns `name` with shard="label" injected as the FIRST label of its
/// block. Series already carrying a shard= label (the router's own
/// per-shard probe/health series) pass through unchanged — a duplicate
/// label key would be invalid exposition.
std::string WithShardLabel(const std::string& name,
                           std::string_view label);

/// Merges member registries into one federated snapshot:
///  * every `self` series (the caller's own registry) reappears with
///    shard="router" injected, so the front-end's counters never
///    collide with the cluster aggregates;
///  * every member series reappears with shard="<label>" injected;
///  * member counters and histograms additionally fold into UNLABELED
///    cluster aggregate series (sum / Snapshot::Merge across members
///    only), so per-shard `_count`s sum exactly to the cluster total.
///    Gauges are instantaneous per-process values (epoch, queue depth)
///    and stay per-shard only.
MetricsSnapshot BuildFederatedSnapshot(
    const MetricsSnapshot& self,
    const std::vector<MemberSnapshot>& members);

/// Interface the net tier uses to serve cluster-wide OBSERVE exports
/// when the process's oracle fronts other processes (the cluster
/// ShardRouter). Lives in obs/ so src/net/ never includes src/cluster/;
/// the server discovers it by dynamic_cast on the engine oracle, the
/// same seam SupportsNativeUpdates uses for update routing.
class ClusterObservable {
 public:
  virtual ~ClusterObservable() = default;

  /// Scrapes every member's binary snapshot and merges it with the
  /// local registry via BuildFederatedSnapshot. Unreachable members are
  /// skipped (the health gauges say why), never block the scrape.
  virtual Result<MetricsSnapshot> FederatedMetricsSnapshot() const = 0;

  /// Pulls span groups from every member (filtered to `trace_id` when
  /// non-zero) and groups them per process, self first, for the
  /// multi-process RenderChromeTrace.
  virtual Result<std::vector<ProcessSpans>> CollectClusterSpans(
      uint64_t trace_id) const = 0;
};

}  // namespace obs
}  // namespace gtpq

#endif  // GTPQ_OBS_FEDERATION_H_

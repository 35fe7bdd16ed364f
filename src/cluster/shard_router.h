#ifndef GTPQ_CLUSTER_SHARD_ROUTER_H_
#define GTPQ_CLUSTER_SHARD_ROUTER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/partition_map.h"
#include "common/per_thread.h"
#include "common/status.h"
#include "net/client.h"
#include "obs/federation.h"
#include "obs/metrics.h"
#include "reachability/boundary_closure.h"

namespace gtpq {
namespace cluster {

struct ShardRouterOptions {
  /// Per-shard "host:port" endpoints; empty uses the ones baked into the
  /// map, otherwise must be sized num_shards.
  std::vector<std::string> endpoints;
  /// Frame limit of the router's shard connections. A probe whose
  /// answer or id list would not fit one frame goes out as several.
  net::WireLimits limits;
  /// Health prober cadence (HEALTH round trip to every shard); <= 0
  /// disables the prober thread entirely. A shard's gtpq_shard_healthy
  /// gauge drops to 0 after two consecutive failed probes.
  int health_interval_ms = 500;
};

/// Set-at-a-time reachability over a cluster of `gteactl serve`
/// processes, one per contiguous vertex shard of a PartitionMap.
///
/// The router keeps only the map's BoundaryLayout (cut points, boundary
/// vertex ids, cross edges, per-shard overlay contributions, and the
/// overlay transitive closure), installed in its BoundaryClosure core,
/// plus the endpoints; per-shard
/// labelings live in the shard processes. This class is the core's
/// wire prober: each call's probes go out as gtpq-wire PROBE frames on
/// this thread's connections, all sent before any answer is read, so
/// the shards work concurrently. Every set call thus costs one PROBE
/// frame per shard holding members or probed nodes, or one per tile
/// when an answer would exceed the frame limit (probe_limits() derives
/// the tile size from options.limits); see BoundaryClosure for the
/// fold.
///
/// Wire failures cannot be reported through the bool probe interface.
/// A failed frame, or one answered at an epoch other than the one the
/// summary in use recorded, logs a warning, drops the connection (the
/// next call reconnects), bumps gtpq_shard_probe_failures_total, and
/// the call answers false. Reconnects ride out a restart with a long
/// backoff budget.
///
/// Updates: SupportsNativeUpdates() is true, so the serving layer's
/// SharedEngineFactory routes APPLY_UPDATES here instead of wrapping
/// the router in a delta overlay. ApplyNativeUpdate applies the batch
/// on the owning shard, re-probes that shard's boundary-to-boundary
/// contribution with one frame, rebuilds the replicated closure, and
/// then commits an epoch barrier: every other shard receives one empty
/// batch so all shard epochs advance in lockstep and no later probe can
/// observe mixed shard epochs. Batches that would change the partition
/// structure (node additions, cross-shard edges, boundary-vertex
/// removals, multi-shard batches) are rejected with FailedPrecondition
/// before any shard is touched.
///
/// Thread safety: probes may run concurrently from any thread
/// (connections are per-thread, the closure swap is a locked
/// shared_ptr exchange); ApplyNativeUpdate serializes against itself
/// and must not run concurrently with probes that require a stable
/// epoch — the serving layer's serial update dispatcher provides
/// exactly that barrier.
class ShardRouter : public BoundaryClosure, public obs::ClusterObservable {
 public:
  /// Validates endpoints, connects to every shard once (bounded
  /// ECONNREFUSED backoff, so a cluster can come up in any order), and
  /// checks each server's HELLO against the map: graph_nodes must equal
  /// the shard's range size. Fails without a usable router on any
  /// mismatch. On success the health prober thread starts (unless
  /// disabled via options).
  static Result<std::unique_ptr<ShardRouter>> Connect(
      PartitionMap map, ShardRouterOptions options = {});
  ~ShardRouter() override;

  std::string_view name() const override { return name_; }

  bool SupportsNativeUpdates() const override { return true; }
  Status ApplyNativeUpdate(const UpdateBatch& batch) const override;

  /// obs::ClusterObservable — the net tier discovers these by
  /// dynamic_cast on the serving oracle and fans OBSERVE out through
  /// them. Scrapes use bounded connect retries so a dead shard delays
  /// the export by at most one short backoff instead of the full probe
  /// reconnect budget.
  Result<obs::MetricsSnapshot> FederatedMetricsSnapshot() const override;
  Result<std::vector<obs::ProcessSpans>> CollectClusterSpans(
      uint64_t trace_id) const override;

  /// Last epoch each shard committed (HELLO at connect, then every
  /// routed update).
  std::vector<uint64_t> shard_epochs() const;
  /// Prober verdict per shard (true until kHealthFailureThreshold
  /// consecutive HEALTH round trips fail). Mirrors the
  /// gtpq_shard_healthy{shard="N"} gauges.
  std::vector<bool> shard_health() const;
  /// Runs one synchronous health sweep over every shard — the prober
  /// thread's body, exposed so tests can step it deterministically.
  void ProbeHealthOnce() const;

 protected:
  Status ProbeShards(std::span<ShardProbe> probes) const override;
  ProbeLimits probe_limits() const override;
  bool probes_cost_round_trips() const override { return true; }
  void OnProbeFailure(size_t shard, const Status& status) const override;

 private:
  ShardRouter(PartitionMap map, ShardRouterOptions options);

  /// The calling thread's connection to `shard`, connecting (and
  /// HELLO-validating) on first use; nullptr after a warning when the
  /// shard is unreachable or serves the wrong graph. `attempts` bounds
  /// the ECONNREFUSED backoff of a fresh connect (probes use
  /// probe_connect_attempts_ to ride out restarts; the health prober
  /// and federation scrapes pass 1–2 so a dead shard cannot stall
  /// them).
  net::NetClient* Client(size_t shard) const;
  net::NetClient* Client(size_t shard, int attempts) const;
  /// Drops the calling thread's connection to `shard` after a wire
  /// error so the next probe reconnects.
  void DropClient(size_t shard) const;
  void StartProber();
  void ProberLoop();

  std::vector<std::string> endpoints_;
  net::WireLimits limits_;
  // Fresh-connect attempts of a probe: about 23 s of bounded backoff,
  // enough to ride out a shard restart. Tests lower it through
  // ShardRouterTestPeer.
  friend struct ShardRouterTestPeer;
  int probe_connect_attempts_ = 50;
  int health_interval_ms_;
  // Consecutive failed probes before a shard is marked unhealthy. One
  // flake (a lost race with a restart) should not flap the gauge the
  // failover seam will eventually key off.
  static constexpr int kHealthFailureThreshold = 2;
  std::string name_;

  // Serializes ApplyNativeUpdate.
  mutable std::mutex update_mutex_;
  mutable std::mutex epoch_mutex_;
  mutable std::vector<uint64_t> shard_epochs_;

  mutable PerThread<std::vector<std::unique_ptr<net::NetClient>>> clients_;

  // Health prober state: verdicts + consecutive-failure streaks under
  // one mutex (written by the prober thread, read by shard_health()),
  // and the thread's stop plumbing. The prober uses its own PerThread
  // client slots, so it never races probe traffic on a connection.
  mutable std::mutex health_mutex_;
  mutable std::vector<bool> healthy_;
  mutable std::vector<int> health_streak_;
  std::mutex prober_mutex_;
  std::condition_variable prober_cv_;
  bool prober_stop_ = false;
  std::thread prober_;

  // Observability handles (registry-owned, stable pointers; one
  // counter/histogram per shard, labeled shard="N").
  std::vector<obs::Counter*> shard_probes_;
  std::vector<obs::Counter*> probe_failures_;
  std::vector<obs::Histogram*> shard_probe_latency_us_;
  std::vector<obs::Gauge*> shard_healthy_;
  std::vector<obs::Counter*> health_failures_;
  obs::Counter* reconnects_ = nullptr;
};

}  // namespace cluster
}  // namespace gtpq

#endif  // GTPQ_CLUSTER_SHARD_ROUTER_H_

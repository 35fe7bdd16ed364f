#include "cluster/shard_router.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "dynamic/graph_delta.h"
#include "obs/trace.h"

namespace gtpq {
namespace cluster {

ShardRouter::ShardRouter(PartitionMap map, ShardRouterOptions options)
    : endpoints_(options.endpoints.empty() ? std::move(map.endpoints)
                                           : std::move(options.endpoints)),
      limits_(options.limits),
      health_interval_ms_(options.health_interval_ms),
      name_("cluster:" + map.inner_spec) {
  // Connect() validated the map, and with it the layout.
  InitBoundaries(std::move(map.layout));
  const size_t shards = NumShards();
  shard_epochs_.assign(shards, 0);

  obs::Registry& reg = obs::Registry::Global();
  shard_probes_.reserve(shards);
  probe_failures_.reserve(shards);
  shard_probe_latency_us_.reserve(shards);
  shard_healthy_.reserve(shards);
  health_failures_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
    shard_probes_.push_back(
        reg.GetCounter("gtpq_shard_probes_total" + label));
    probe_failures_.push_back(
        reg.GetCounter("gtpq_shard_probe_failures_total" + label));
    shard_probe_latency_us_.push_back(
        reg.GetHistogram("gtpq_shard_probe_latency_us" + label));
    shard_healthy_.push_back(reg.GetGauge("gtpq_shard_healthy" + label));
    health_failures_.push_back(
        reg.GetCounter("gtpq_shard_health_failures_total" + label));
    // Connect() refuses to hand out a router before every shard
    // answered HELLO, so shards start healthy; the prober demotes them.
    shard_healthy_.back()->Set(1);
  }
  healthy_.assign(shards, true);
  health_streak_.assign(shards, 0);
  reconnects_ = reg.GetCounter("gtpq_shard_reconnects_total");
}

ShardRouter::~ShardRouter() {
  {
    std::lock_guard<std::mutex> lock(prober_mutex_);
    prober_stop_ = true;
  }
  prober_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::Connect(
    PartitionMap map, ShardRouterOptions options) {
  GTPQ_RETURN_NOT_OK(map.Validate());
  if (!options.endpoints.empty() &&
      options.endpoints.size() != map.num_shards()) {
    return Status::InvalidArgument(
        "router got " + std::to_string(options.endpoints.size()) +
        " endpoints for " + std::to_string(map.num_shards()) + " shards");
  }
  auto router = std::unique_ptr<ShardRouter>(
      new ShardRouter(std::move(map), std::move(options)));
  for (size_t s = 0; s < router->NumShards(); ++s) {
    net::NetClient* client = router->Client(s);
    if (client == nullptr) {
      return Status::Internal(
          "cannot bring up shard " + std::to_string(s) + " at " +
          router->endpoints_[s] + " (see preceding warning)");
    }
    std::lock_guard<std::mutex> lock(router->epoch_mutex_);
    router->shard_epochs_[s] = client->server_info().epoch;
  }
  router->StartProber();
  return router;
}

net::NetClient* ShardRouter::Client(size_t shard) const {
  return Client(shard, probe_connect_attempts_);
}

net::NetClient* ShardRouter::Client(size_t shard, int attempts) const {
  auto& slots = clients_.Local();
  if (slots.size() != NumShards()) slots.resize(NumShards());
  if (slots[shard] != nullptr && slots[shard]->connected()) {
    return slots[shard].get();
  }
  std::string host;
  uint16_t port = 0;
  if (!net::ParseHostPort(endpoints_[shard], &host, &port)) {
    GTPQ_LOG(Warning) << "shard " << shard << " endpoint is not host:port: "
                      << endpoints_[shard];
    return nullptr;
  }
  auto client = std::make_unique<net::NetClient>();
  const Status status = net::ConnectWithRetry(client.get(), host, port,
                                              limits_, attempts);
  if (!status.ok()) {
    GTPQ_LOG(Warning) << "shard " << shard << " at " << endpoints_[shard]
                      << " unreachable: " << status.ToString();
    return nullptr;
  }
  const uint64_t expect =
      shard_starts()[shard + 1] - shard_starts()[shard];
  if (client->server_info().graph_nodes != expect) {
    GTPQ_LOG(Warning) << "shard " << shard << " at " << endpoints_[shard]
                      << " serves " << client->server_info().graph_nodes
                      << " nodes, map expects " << expect
                      << " — wrong shard behind this endpoint?";
    return nullptr;
  }
  slots[shard] = std::move(client);
  return slots[shard].get();
}

void ShardRouter::DropClient(size_t shard) const {
  auto& slots = clients_.Local();
  if (shard < slots.size() && slots[shard] != nullptr) {
    // Every drop forces the next probe on this thread to reconnect.
    reconnects_->Add();
    slots[shard].reset();
  }
}

std::vector<uint64_t> ShardRouter::shard_epochs() const {
  std::lock_guard<std::mutex> lock(epoch_mutex_);
  return shard_epochs_;
}

Status ShardRouter::ProbeShards(std::span<ShardProbe> probes) const {
  // The ambient trace was installed thread-locally by the query worker
  // (QueryServer::EvaluateOnWorker), with the GTEA stage issuing this
  // call as the parent span; child spans are recorded here.
  // Each frame is sent under a PRE-ALLOCATED span id installed as the
  // parent the frame header carries, so the shard's server-side
  // "serve probe" span nests under the router's "probe shard=N" span in
  // the stitched cross-process trace.
  const obs::TraceContext trace = obs::CurrentTrace();
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  struct Pending {
    net::NetClient* client = nullptr;
    uint64_t request_id = 0;
    uint64_t span_id = 0;
    double start_us = 0;
  };
  std::vector<Pending> pending(probes.size());
  Status first = Status::OK();
  // A failure drops the shard's connection, which every other frame to
  // that shard in this call was pipelined on: those are abandoned too,
  // and the failure is reported once.
  std::vector<char> failed(NumShards(), 0);
  const auto fail = [&](size_t i, const Status& status) {
    const size_t shard = probes[i].shard;
    if (!failed[shard]) {
      failed[shard] = 1;
      OnProbeFailure(shard, status);
    }
    for (size_t j = 0; j < probes.size(); ++j) {
      if (probes[j].shard == shard) pending[j].client = nullptr;
    }
    if (first.ok()) first = status;
  };

  // Scatter every frame before gathering any: the shards answer
  // concurrently, and frames to one shard pipeline on its connection.
  for (size_t i = 0; i < probes.size(); ++i) {
    const ShardProbe& probe = probes[i];
    if (failed[probe.shard]) continue;
    net::NetClient* client = Client(probe.shard);
    if (client == nullptr) {
      fail(i, Status::Internal("no connection to shard " +
                               std::to_string(probe.shard)));
      continue;
    }
    net::ProbeRequest request;
    request.reverse = probe.reverse;
    request.pivots = probe.pivots;
    request.ids = probe.ids;
    pending[i].span_id = trace.active() ? recorder.NewSpanId() : 0;
    pending[i].start_us = obs::NowMicros();
    const obs::ScopedTraceContext scope({trace.trace_id, pending[i].span_id});
    auto id = client->SendProbe(request);
    if (!id.ok()) {
      fail(i, id.status());
      continue;
    }
    pending[i].client = client;
    pending[i].request_id = *id;
  }

  IndexStats& st = stats();
  for (size_t i = 0; i < probes.size(); ++i) {
    if (pending[i].client == nullptr) continue;
    ShardProbe& probe = probes[i];
    net::ProbeResult result;
    auto payload = pending[i].client->WaitForResponse(
        pending[i].request_id, net::FrameType::kProbeResult);
    Status status = payload.status();
    if (status.ok()) status = net::DecodeProbeResult(*payload, &result);
    if (status.ok() && (result.rows != probe.pivots.size() ||
                        result.cols != probe.ids.size())) {
      status = Status::ParseError("probe result shape mismatch");
    }
    if (!status.ok()) {
      fail(i, status);
      continue;
    }
    const double dur_us = obs::NowMicros() - pending[i].start_us;
    shard_probes_[probe.shard]->Add();
    shard_probe_latency_us_[probe.shard]->Record(
        static_cast<uint64_t>(dur_us));
    if (trace.active()) {
      recorder.Record(trace.trace_id, pending[i].span_id, trace.parent_span,
                      "probe shard=" + std::to_string(probe.shard),
                      pending[i].start_us, dur_us);
    }
    probe.epoch = result.epoch;
    probe.bits = std::move(result.bits);
    st.elements_looked_up += probe.pivots.size() * probe.ids.size();
  }
  return first;
}

ProbeLimits ShardRouter::probe_limits() const {
  return {net::MaxProbeCells(limits_), net::MaxProbeNodes(limits_)};
}

void ShardRouter::OnProbeFailure(size_t shard, const Status& status) const {
  BoundaryClosure::OnProbeFailure(shard, status);
  probe_failures_[shard]->Add();
  DropClient(shard);
}

namespace {

Status RejectStructural(const std::string& what) {
  return Status::FailedPrecondition(
      "cluster router cannot apply " + what +
      " natively: it would change the partition structure (repartition "
      "with gteactl partition instead)");
}

}  // namespace

Status ShardRouter::ApplyNativeUpdate(const UpdateBatch& batch) const {
  std::lock_guard<std::mutex> update_lock(update_mutex_);

  if (!batch.add_nodes.empty()) {
    return RejectStructural("node additions");
  }
  constexpr size_t kNoOwner = static_cast<size_t>(-1);
  size_t owner = kNoOwner;
  auto claim = [&owner](size_t shard) -> Status {
    if (owner == kNoOwner) owner = shard;
    if (owner != shard) {
      return Status::FailedPrecondition(
          "cluster router applies one batch to one owning shard; split "
          "multi-shard batches upstream");
    }
    return Status::OK();
  };
  auto check_edge = [&](const EdgeRef& e) -> Status {
    const size_t sf = ShardOf(e.from);
    const size_t st = ShardOf(e.to);
    if (sf >= NumShards() || st >= NumShards()) {
      return Status::InvalidArgument(
          "update references vertex beyond the partitioned graph (" +
          std::to_string(e.from) + " -> " + std::to_string(e.to) + ")");
    }
    if (sf != st) return RejectStructural("cross-shard edges");
    return claim(sf);
  };
  for (const EdgeRef& e : batch.add_edges) GTPQ_RETURN_NOT_OK(check_edge(e));
  for (const EdgeRef& e : batch.remove_edges) {
    GTPQ_RETURN_NOT_OK(check_edge(e));
  }
  for (const NodeId v : batch.remove_nodes) {
    if (ShardOf(v) >= NumShards()) {
      return Status::InvalidArgument("update removes unknown vertex " +
                                     std::to_string(v));
    }
    if (std::binary_search(boundary_vertices().begin(),
                           boundary_vertices().end(), v)) {
      return RejectStructural("boundary-vertex removals");
    }
    GTPQ_RETURN_NOT_OK(claim(ShardOf(v)));
  }

  std::vector<uint64_t> epochs(NumShards(), 0);
  const UpdateBatch barrier;  // empty batch: epoch bump, no mutation

  if (owner != kNoOwner) {
    UpdateBatch local;
    const auto local_edge = [&](const EdgeRef& e) {
      return EdgeRef{LocalId(e.from, owner), LocalId(e.to, owner)};
    };
    for (const EdgeRef& e : batch.add_edges) {
      local.add_edges.push_back(local_edge(e));
    }
    for (const EdgeRef& e : batch.remove_edges) {
      local.remove_edges.push_back(local_edge(e));
    }
    for (const NodeId v : batch.remove_nodes) {
      local.remove_nodes.push_back(LocalId(v, owner));
    }

    net::NetClient* client = Client(owner);
    if (client == nullptr) {
      return Status::Internal("owning shard " + std::to_string(owner) +
                                 " is unreachable; nothing applied");
    }
    auto applied = client->ApplyUpdates({&local, 1});
    if (!applied.ok()) {
      DropClient(owner);
      return applied.status();
    }
    epochs[owner] = applied->epoch;

    // The shard's intra-shard reachability changed; re-probe its
    // boundary-to-boundary contribution (one frame) and rebuild the
    // replicated closure before any other shard — or any later query —
    // can observe the new epoch.
    GTPQ_RETURN_NOT_OK(RefreshContributions({&owner, 1}));
  }

  // Epoch barrier: every shard that did not apply the batch commits one
  // empty batch, so all shard epochs advance together and a probe can
  // never observe some shards before and some after this update.
  for (size_t s = 0; s < NumShards(); ++s) {
    if (s == owner) continue;
    net::NetClient* client = Client(s);
    if (client == nullptr) {
      return Status::Internal("shard " + std::to_string(s) +
                                 " unreachable during epoch barrier");
    }
    auto applied = client->ApplyUpdates({&barrier, 1});
    if (!applied.ok()) {
      DropClient(s);
      return applied.status();
    }
    epochs[s] = applied->epoch;
  }

  {
    std::lock_guard<std::mutex> lock(epoch_mutex_);
    shard_epochs_ = epochs;
  }
  const auto [min_it, max_it] =
      std::minmax_element(epochs.begin(), epochs.end());
  if (*min_it != *max_it) {
    GTPQ_LOG(Warning) << "cluster epochs diverged after update (min "
                      << *min_it << ", max " << *max_it
                      << "); did something update a shard directly?";
  }
  return Status::OK();
}

Result<obs::MetricsSnapshot> ShardRouter::FederatedMetricsSnapshot()
    const {
  // Scatter one binary-snapshot request per reachable shard, then
  // gather. A dead shard is skipped — its absence shows up as a missing
  // shard="N" series and a zero gtpq_shard_healthy gauge, which is more
  // useful than an export that errors out whenever one member is down.
  struct Pending {
    size_t shard = 0;
    net::NetClient* client = nullptr;
    uint64_t request_id = 0;
  };
  std::vector<Pending> pending;
  pending.reserve(NumShards());
  for (size_t s = 0; s < NumShards(); ++s) {
    net::NetClient* client = Client(s, /*attempts=*/2);
    if (client == nullptr) continue;
    auto id = client->SendObserve(net::ObserveKind::kMetricsSnapshot);
    if (!id.ok()) {
      DropClient(s);
      continue;
    }
    pending.push_back({s, client, *id});
  }
  std::vector<obs::MemberSnapshot> members;
  members.reserve(pending.size());
  for (const Pending& p : pending) {
    auto body = p.client->WaitForResponse(p.request_id,
                                          net::FrameType::kObserveResult);
    if (!body.ok()) {
      DropClient(p.shard);
      continue;
    }
    obs::MetricsSnapshot snapshot;
    const Status decoded = obs::DecodeMetricsSnapshot(*body, &snapshot);
    if (!decoded.ok()) {
      GTPQ_LOG(Warning) << "shard " << p.shard
                        << " metrics snapshot rejected: "
                        << decoded.ToString();
      continue;
    }
    members.push_back({std::to_string(p.shard), std::move(snapshot)});
  }
  return obs::BuildFederatedSnapshot(obs::Registry::Global().Snap(),
                                     members);
}

Result<std::vector<obs::ProcessSpans>> ShardRouter::CollectClusterSpans(
    uint64_t trace_id) const {
  std::vector<obs::ProcessSpans> groups;
  groups.reserve(NumShards() + 1);
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  groups.push_back({"router", 1,
                    trace_id != 0 ? recorder.SpansForTrace(trace_id)
                                  : recorder.Spans()});
  uint32_t next_pid = 2;
  for (size_t s = 0; s < NumShards(); ++s) {
    net::NetClient* client = Client(s, /*attempts=*/2);
    if (client == nullptr) continue;
    auto member = client->Spans(trace_id);
    if (!member.ok()) {
      GTPQ_LOG(Warning) << "shard " << s << " span export failed: "
                        << member.status().ToString();
      DropClient(s);
      continue;
    }
    // A leaf server exports one group; a member that is itself a
    // router exports one per process behind it.
    for (obs::ProcessSpans& group : *member) {
      groups.push_back(
          {"shard " + std::to_string(s) + " (" + endpoints_[s] + ")",
           next_pid++, std::move(group.spans)});
    }
  }
  return groups;
}

std::vector<bool> ShardRouter::shard_health() const {
  std::lock_guard<std::mutex> lock(health_mutex_);
  return healthy_;
}

void ShardRouter::ProbeHealthOnce() const {
  for (size_t s = 0; s < NumShards(); ++s) {
    // One connect attempt only: a down shard must cost one refused
    // connect per sweep, not a reconnect backoff budget.
    bool ok = false;
    net::NetClient* client = Client(s, /*attempts=*/1);
    if (client != nullptr) {
      // The server answers HELLO inline on its IO thread, so a reply
      // shows the event loop is turning.
      ok = client->Hello().ok();
      if (!ok) DropClient(s);
    }
    std::lock_guard<std::mutex> lock(health_mutex_);
    if (ok) {
      health_streak_[s] = 0;
      healthy_[s] = true;
      shard_healthy_[s]->Set(1);
    } else {
      health_failures_[s]->Add();
      if (++health_streak_[s] >= kHealthFailureThreshold) {
        if (healthy_[s]) {
          GTPQ_LOG(Warning) << "shard " << s << " at " << endpoints_[s]
                            << " failed " << health_streak_[s]
                            << " consecutive health probes; marking "
                               "unhealthy";
        }
        healthy_[s] = false;
        shard_healthy_[s]->Set(0);
      }
    }
  }
}

void ShardRouter::StartProber() {
  if (health_interval_ms_ <= 0) return;
  prober_ = std::thread([this] { ProberLoop(); });
}

void ShardRouter::ProberLoop() {
  std::unique_lock<std::mutex> lock(prober_mutex_);
  while (!prober_stop_) {
    lock.unlock();
    ProbeHealthOnce();
    lock.lock();
    prober_cv_.wait_for(lock,
                        std::chrono::milliseconds(health_interval_ms_),
                        [this] { return prober_stop_; });
  }
}

}  // namespace cluster
}  // namespace gtpq

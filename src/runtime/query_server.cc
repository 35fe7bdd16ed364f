#include "runtime/query_server.h"

#include <condition_variable>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "reachability/boundary_closure.h"

namespace gtpq {

namespace {

/// Registry handles for the per-query hot path, resolved once.
struct QueryMetrics {
  obs::Counter* queries_total;
  obs::Counter* updates_applied_total;
  obs::Counter* update_rows_total;
  obs::Histogram* query_latency_us;
  obs::Histogram* batch_latency_us;
  obs::Histogram* snapshot_pin_us;
  obs::Gauge* epoch;
  obs::Gauge* uptime_seconds;

  static const QueryMetrics& Get() {
    static const QueryMetrics m = [] {
      obs::Registry& reg = obs::Registry::Global();
      return QueryMetrics{reg.GetCounter("gtpq_queries_total"),
                          reg.GetCounter("gtpq_updates_applied_total"),
                          reg.GetCounter("gtpq_update_rows_total"),
                          reg.GetHistogram("gtpq_query_latency_us"),
                          reg.GetHistogram("gtpq_batch_latency_us"),
                          reg.GetHistogram("gtpq_snapshot_pin_us"),
                          reg.GetGauge("gtpq_epoch"),
                          reg.GetGauge("gtpq_uptime_seconds")};
    }();
    return m;
  }
};

}  // namespace

QueryServer::QueryServer(const DataGraph& g, QueryServerOptions options)
    : g_(g), options_(std::move(options)) {
  GTPQ_CHECK(options_.num_threads > 0);
  factory_ = SharedEngineFactory::Make(options_.engine_spec, g_,
                                       options_.delta_options);
  if (factory_ == nullptr) {
    // An unloadable index (missing file, wrong fingerprint, corrupt
    // bytes) or an unknown spec must not abort a serving binary; the
    // caller checks status() (NetServer::Start forwards it).
    status_ = Status::InvalidArgument(
        "engine spec '" + options_.engine_spec +
        "' did not materialize (unknown spec, or its index failed to "
        "load — see the warning above)");
    return;
  }
  const std::shared_ptr<const EngineSnapshot> initial =
      factory_->snapshot();
  workers_.reserve(options_.num_threads);
  for (size_t i = 0; i < options_.num_threads; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->snap = initial;
    worker->engine = initial->CreateEngine();
    workers_.push_back(std::move(worker));
  }
  // The pool starts after the workers so a task can never observe a
  // half-initialized slot.
  pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  const QueryMetrics& metrics = QueryMetrics::Get();
  metrics.epoch->Set(static_cast<int64_t>(factory_->epoch()));
  // Seeded here, refreshed on every metrics scrape (net/server.cc) so
  // the exported value is current without a dedicated ticker thread.
  metrics.uptime_seconds->Set(
      static_cast<int64_t>(obs::NowMicros() / 1e6));
}

QueryServer::~QueryServer() {
  // Drain in-flight work before the workers' engines are destroyed.
  pool_.reset();
}

QueryResult QueryServer::EvaluateOnWorker(
    const Gtpq& query,
    const std::shared_ptr<const EngineSnapshot>& snap,
    const GteaOptions& options, const obs::TraceContext& trace) {
  const int index = ThreadPool::CurrentWorkerIndex();
  GTPQ_CHECK(index >= 0 &&
             static_cast<size_t>(index) < workers_.size());
  Worker& worker = *workers_[index];
  if (worker.snap != snap) {
    // The batch pinned a newer (or, with interleaved batches, older)
    // epoch than this worker last served: re-stamp a cheap engine over
    // the pinned snapshot's shared artifacts.
    worker.engine = snap->CreateEngine();
    worker.snap = snap;
  }
  Timer timer;
  QueryResult result;
  {
    // Installed thread-locally so the engine's stage spans, and the
    // cluster router's shard probes under them, parent under evaluate.
    obs::ScopedTraceContext scope(trace);
    obs::ScopedSpan span("evaluate");
    result = worker.engine->Evaluate(query, options);
  }
  const double elapsed_ms = timer.ElapsedMillis();
  const EngineStats& stats = worker.engine->stats();
  const QueryMetrics& metrics = QueryMetrics::Get();
  metrics.queries_total->Add();
  metrics.query_latency_us->Record(
      static_cast<uint64_t>(elapsed_ms * 1000.0));
  obs::SlowQueryLog& slowlog = obs::SlowQueryLog::Global();
  if (slowlog.WouldAdmit(elapsed_ms)) {
    obs::SlowQueryEntry entry;
    entry.query = query.ToString(*query.attr_names());
    // The diagnostic rendering is multi-line; flatten for the log.
    for (char& c : entry.query) {
      if (c == '\n') c = ';';
    }
    entry.trace_id = trace.trace_id;
    entry.epoch = snap->epoch();
    entry.wall_ms = elapsed_ms;
    entry.stats = stats;
    slowlog.Record(std::move(entry));
  }
  {
    std::lock_guard<std::mutex> lock(worker.mu);
    ++worker.served.queries;
    worker.served.busy_ms += elapsed_ms;
    worker.served.work += stats;
  }
  return result;
}

std::vector<QueryResult> QueryServer::EvaluateBatch(
    std::span<const Gtpq> queries, BatchInfo* info) {
  return EvaluateBatch(queries, info, options_.eval_options);
}

std::vector<QueryResult> QueryServer::EvaluateBatch(
    std::span<const Gtpq> queries, BatchInfo* info,
    const GteaOptions& options,
    std::span<const obs::TraceContext> traces) {
  GTPQ_CHECK(traces.empty() || traces.size() == queries.size())
      << "trace contexts must be absent or one per query";
  Timer wall;
  std::vector<QueryResult> results(queries.size());

  // Pin one snapshot for the whole batch: queries interleaved with
  // ApplyUpdates still all see this single epoch.
  const std::shared_ptr<const EngineSnapshot> snap = factory_->snapshot();
  if (info != nullptr) {
    info->epoch = snap->epoch();
    info->wall_ms = 0;
  }
  if (queries.empty()) return results;

  // Per-batch completion latch; batches from concurrent callers simply
  // interleave in the pool's queue.
  struct BatchState {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining;
  };
  BatchState state;
  state.remaining = queries.size();

  for (size_t i = 0; i < queries.size(); ++i) {
    const obs::TraceContext trace =
        traces.empty() ? obs::TraceContext{} : traces[i];
    pool_->Submit([this, &queries, &results, &state, &snap, &options,
                   trace, i] {
      results[i] = EvaluateOnWorker(queries[i], snap, options, trace);
      // Notify while holding the lock: the waiter owns `state` and
      // destroys it as soon as it observes remaining == 0, so the cv
      // must not be touched after the mutex is released.
      std::lock_guard<std::mutex> lock(state.mu);
      --state.remaining;
      state.cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(state.mu);
  state.cv.wait(lock, [&state] { return state.remaining == 0; });
  batches_.fetch_add(1, std::memory_order_relaxed);
  const double wall_ms = wall.ElapsedMillis();
  const QueryMetrics& metrics = QueryMetrics::Get();
  metrics.batch_latency_us->Record(static_cast<uint64_t>(wall_ms * 1000.0));
  // The batch held its snapshot pin for its whole wall time.
  metrics.snapshot_pin_us->Record(static_cast<uint64_t>(wall_ms * 1000.0));
  if (info != nullptr) info->wall_ms = wall_ms;
  return results;
}

Status QueryServer::ProbeReachability(bool reverse,
                                      std::span<const NodeId> pivots,
                                      std::span<const NodeId> ids,
                                      uint64_t max_cells, uint64_t* epoch,
                                      std::vector<uint8_t>* bits) const {
  // Repeated pivots and ids are legal, so the answer's size is bounded
  // only by this check, not by the graph.
  const uint64_t cells = uint64_t{pivots.size()} * ids.size();
  if (cells > max_cells) {
    return Status::InvalidArgument(
        "probe of " + std::to_string(pivots.size()) + " pivots x " +
        std::to_string(ids.size()) + " ids exceeds the " +
        std::to_string(max_cells) + "-cell answer limit; split the pivots");
  }
  const std::shared_ptr<const EngineSnapshot> snap = factory_->snapshot();
  const ReachabilityOracle* oracle = snap->oracle();
  if (oracle == nullptr) {
    return Status::FailedPrecondition(
        "engine spec '" + options_.engine_spec +
        "' has no reachability oracle to probe");
  }
  const size_t n = snap->graph().NumNodes();
  for (const auto& [what, list] :
       {std::pair{"pivot", pivots}, std::pair{"id", ids}}) {
    for (const NodeId v : list) {
      if (v >= n) {
        return Status::InvalidArgument(
            std::string("probe ") + what + " " + std::to_string(v) +
            " is outside the " + std::to_string(n) + "-node graph");
      }
    }
  }
  AnswerShardProbe(*oracle, reverse, pivots, ids, bits);
  if (epoch != nullptr) *epoch = snap->epoch();
  return Status::OK();
}

Status QueryServer::ApplyUpdates(const UpdateBatch& batch) {
  const Status st = factory_->ApplyUpdates(batch);
  if (st.ok()) {
    updates_applied_.fetch_add(1, std::memory_order_relaxed);
    const QueryMetrics& metrics = QueryMetrics::Get();
    metrics.epoch->Set(static_cast<int64_t>(factory_->epoch()));
    metrics.updates_applied_total->Add();
    metrics.update_rows_total->Add(batch.NumOps());
  }
  return st;
}

ServingStats QueryServer::serving_stats() const {
  ServingStats out;
  out.engine = engine_name();
  out.epoch = epoch();
  out.threads = num_threads();
  out.batches = batches_.load(std::memory_order_relaxed);
  out.updates_applied = updates_applied_.load(std::memory_order_relaxed);
  for (const auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mu);
    const ServingStats& served = worker->served;
    out.queries += served.queries;
    out.busy_ms += served.busy_ms;
    out.work += served.work;
  }
  return out;
}

}  // namespace gtpq

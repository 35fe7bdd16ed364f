// The four serving workloads. Each one runs a fixed, seed-derived
// operation list in complete passes and checks every answer against a
// reference computed before timing by an independent configuration.
// Why each workload exists, and which layer it stresses or bypasses, is
// recorded in BENCHMARK.json and METRICS.md.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <span>
#include <thread>
#include <utility>

#include "bench.h"
#include "cluster/partition.h"
#include "common/rng.h"
#include "core/analysis.h"
#include "core/gtea.h"
#include "dynamic/delta_overlay.h"
#include "dynamic/stream_gen.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "query/query_generator.h"
#include "query/query_parser.h"
#include "reachability/factory.h"
#include "runtime/query_server.h"
#include "runtime/thread_pool.h"
#include "storage/index_io.h"
#include "trace.h"
#include "workload/arxiv.h"
#include "workload/xmark.h"
#include "workload/xmark_queries.h"

namespace perfbench {

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values->size())));
  return (*values)[std::min(values->size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int PinToQuietCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  // Device interrupts served per CPU since boot: the numbered lines of
  // /proc/interrupts, one count column per online CPU.
  std::vector<int> cpus;
  std::vector<uint64_t> irqs;
  std::ifstream table("/proc/interrupts");
  std::string line;
  if (std::getline(table, line)) {
    std::istringstream header(line);
    std::string name;
    while (header >> name) {  // "CPU0 CPU1 ..."
      cpus.push_back(name.size() > 3 ? std::atoi(name.c_str() + 3) : -1);
    }
    irqs.assign(cpus.size(), 0);
  }
  while (std::getline(table, line)) {
    std::istringstream row(line);
    std::string label;
    row >> label;
    if (label.empty() || !std::isdigit(static_cast<unsigned char>(label[0]))) {
      continue;
    }
    uint64_t count = 0;
    for (size_t c = 0; c < cpus.size() && row >> count; ++c) irqs[c] += count;
  }
  int best = -1;
  uint64_t best_irqs = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    uint64_t n = 0;
    for (size_t c = 0; c < cpus.size(); ++c) {
      if (cpus[c] == cpu) n = irqs[c];
    }
    if (best < 0 || n <= best_irqs) {
      best = cpu;
      best_irqs = n;
    }
  }
  if (best < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? best : -1;
}

namespace {

using gtpq::DataGraph;
using gtpq::Gtpq;
using gtpq::QueryResult;
using gtpq::QueryServer;
using gtpq::Status;
using gtpq::UpdateBatch;

// --- sizes ----------------------------------------------------------------
// Each pass takes at most about 1.5 s, so a 25 s run holds enough
// complete passes for a stable median. The datasets, query pools and
// update streams are fixed per workload; --seed permutes the query
// order. A pool's total cost therefore does not depend on the seed, and
// the spread between seeds measures the serving stack rather than which
// heavy queries a seed happened to draw.
constexpr double kXmarkScale = 0.03;
constexpr size_t kWireQueries = 96;
constexpr size_t kWireConnections = 2;
constexpr size_t kWirePool = 1;
constexpr size_t kLiveQueries = 48;
constexpr size_t kLiveRounds = 3;
constexpr size_t kLiveOpsPerRound = 32;
constexpr size_t kClusterNodes = 400;
constexpr size_t kClusterShards = 3;
constexpr size_t kClusterQueries = 64;
constexpr size_t kClusterResultLimit = 64;
// The read-only workloads also time updates, so every stack reports
// update_ms.p50. Between read passes, a twin of the serving stack takes
// the live-update write shape (kLiveRounds batches of kLiveOpsPerRound
// ops) kWriteCycles times per run, each time from a fresh twin, so every
// sample sees the same pending delta. The first cycle is a warm-up.
constexpr size_t kWriteCycles = 33;
// Floor on timed passes (cycles on live-update) per run.
constexpr size_t kMinTimedPasses = 3;

/// Every per-layer metric, in report order. Workloads that bypass a
/// layer report 0 for it.
const std::vector<std::pair<const char*, const char*>>& LayerMetricNames() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"query.parse_us", "us"},
      {"analysis.minimize_us", "us"},
      {"analysis.minimized_node_ratio", "ratio"},
      {"reach.build_ms", "ms"},
      {"reach.calls", "count"},
      {"reach.call_us", "us"},
      {"reach.elements", "count"},
      {"reach.point_probes", "count"},
      {"core.match_ms", "ms"},
      {"core.prune_down_ms", "ms"},
      {"core.prime_ms", "ms"},
      {"core.prune_up_ms", "ms"},
      {"core.matching_graph_ms", "ms"},
      {"core.enumerate_ms", "ms"},
      {"core.candidates", "count"},
      {"core.after_prune_down", "count"},
      {"core.after_prune_up", "count"},
      {"core.prune_keep_ratio", "ratio"},
      {"core.matching_graph_size", "count"},
      {"core.result_tuples", "count"},
      {"runtime.dispatch_us", "us"},
      {"runtime.install_ms", "ms"},
      {"dynamic.with_updates_ms", "ms"},
      {"dynamic.probe_us", "us"},
      {"dynamic.pending_ops", "count"},
      {"dynamic.compactions", "count"},
      {"storage.save_ms", "ms"},
      {"storage.map_ms", "ms"},
      {"storage.index_bytes", "bytes"},
      {"net.overhead_us", "us"},
      {"net.codec_us", "us"},
      {"net.bytes", "bytes"},
      {"net.queries_per_dispatch", "ratio"},
      {"cluster.partition_s", "s"},
      {"cluster.probe_frames", "count"},
      {"cluster.wire_bytes", "bytes"},
      {"cluster.router_calls", "count"},
      {"cluster.router_call_us", "us"},
      {"trace.residual_pct", "%"},
      {"trace.overhead_pct", "%"},
  };
  return names;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

/// The run stamp's graph line: size of the dataset and of its index
/// against this host's per-core L2.
std::string GraphStamp(const std::string& dataset, const DataGraph& g,
                       uint64_t index_bytes, size_t queries) {
  std::string l2 = "unknown";
  std::ifstream("/sys/devices/system/cpu/cpu0/cache/index2/size") >> l2;
  char line[320];
  std::snprintf(line, sizeof(line),
                "graph: %s nodes=%zu edges=%zu index_bytes=%llu (%.2f MiB; "
                "per-core L2 %s) queries=%zu",
                dataset.c_str(), g.NumNodes(), g.NumEdges(),
                static_cast<unsigned long long>(index_bytes),
                static_cast<double>(index_bytes) / 1048576.0, l2.c_str(),
                queries);
  return line;
}

/// Random GTPQs with AND/OR/NOT structural predicates over `g`.
std::vector<Gtpq> LogicalRandomQueries(const DataGraph& g, uint64_t seed,
                                       size_t count) {
  std::vector<Gtpq> queries;
  for (uint64_t i = 0; queries.size() < count && i < 64 * count; ++i) {
    gtpq::QueryGenOptions qo;
    qo.num_nodes = 5 + i % 4;
    qo.pc_probability = 0.2;
    qo.predicate_fraction = 0.35;
    qo.output_fraction = 0.6;
    qo.disjunction_probability = 0.5;
    qo.negation_probability = 0.3;
    qo.seed = seed * 1000003 + i;
    auto q = gtpq::GenerateRandomQuery(g, qo);
    if (q.has_value()) queries.push_back(std::move(*q));
  }
  return queries;
}

/// Reorders `queries` by a seed-driven Fisher-Yates shuffle.
void Permute(std::vector<Gtpq>* queries, uint64_t seed) {
  gtpq::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  for (size_t i = queries->size(); i > 1; --i) {
    std::swap((*queries)[i - 1], (*queries)[rng.NextBounded(i)]);
  }
}

/// The live-update write stream over `g`: kLiveRounds batches of
/// kLiveOpsPerRound mixed ops, valid in order. It is fixed like the
/// dataset: how expensive the delta regime gets depends on which edges a
/// stream touches, and a seed should not pick a cheaper workload.
std::vector<UpdateBatch> LiveStream(const DataGraph& g) {
  gtpq::UpdateStreamOptions so;
  so.rounds = kLiveRounds;
  so.ops_per_round = kLiveOpsPerRound;
  so.seed = 1;
  return gtpq::GenerateUpdateStream(g, so);
}

/// Answers of `engine` over `queries`, in order.
std::vector<QueryResult> Answers(gtpq::Evaluator& engine,
                                 const std::vector<Gtpq>& queries,
                                 const gtpq::GteaOptions& options = {}) {
  std::vector<QueryResult> out;
  out.reserve(queries.size());
  for (const Gtpq& q : queries) out.push_back(engine.Evaluate(q, options));
  return out;
}

/// Sums of one traced phase; per-query metrics divide by `queries`.
struct TraceAgg {
  uint64_t queries = 0;
  double caller_us = 0;
  double attributed_us = 0;
  std::map<std::string, double> self_us;
  std::map<std::string, double> total_us;  // span durations, children in
  StageCounts counts;
  double reach_calls = 0;
  double reach_elements = 0;
  double reach_point_probes = 0;
  /// Per-layer values set by the workload. The keys in kPerQuerySums
  /// are summed per query; every other key is final as stored.
  std::map<std::string, double> layer;
};

const char* const kPerQuerySums[] = {"net.overhead_us", "runtime.dispatch_us",
                                     "cluster.probe_frames",
                                     "cluster.wire_bytes"};

/// How a workload's serving stack is shaped, as far as the layer
/// attribution needs to know.
struct StackShape {
  /// The wire front-end parses query text outside the runtime's busy
  /// window (NetServer); in-process stacks take parsed queries.
  bool parses_on_path = false;
  /// The layer the serving oracle belongs to: its self time is also
  /// reported as dynamic.probe_us (a delta overlay) or as
  /// cluster.router_call_us (a shard router).
  enum class Oracle { kIndex, kDeltaOverlay, kRouter } oracle = Oracle::kIndex;
  gtpq::GteaOptions options;
};

/// The per-layer breakdown of a traced run. Each query is served once
/// through the real stack inside a "request" span (the caller-observed
/// time), the runtime's busy-time delta splitting off the runtime or
/// wire overhead; then it is replayed through the six GTEA stages over
/// the serving snapshot's own oracle, wrapped in a TracedOracle, which
/// splits the engine time into stage and oracle self times.
class LayerTracer {
 public:
  LayerTracer(const DataGraph& g, const StackShape& shape)
      : shape_(shape),
        names_(std::make_shared<gtpq::AttrNames>(g.attr_names())) {}

  std::map<std::string, double>& layer() { return agg_.layer; }

  /// Times gtpq::Minimize on each query (off the serving path).
  void MeasureMinimize(const std::vector<Gtpq>& queries);

  /// `serve` sends the query through the serving stack of `runtime`.
  void Query(const QueryServer& runtime, const std::function<void()>& serve,
             const std::string& text, const QueryResult& expected,
             bool keep_spans, Outcome* out);

  /// Writes the kept spans and appends every per-layer metric.
  void Finish(const RunConfig& config, double untraced_serve_us,
              Outcome* out);

 private:
  void Replay(const QueryServer& runtime, double busy_us,
              const std::string& text, const QueryResult& expected,
              Outcome* out);

  StackShape shape_;
  std::shared_ptr<gtpq::AttrNames> names_;
  SpanRecorder recorder_;
  TraceAgg agg_;
  // One decorator per serving oracle seen (a live-update run sees one
  // per snapshot); kept alive because their stat slots are per instance.
  std::vector<std::unique_ptr<TracedOracle>> traced_;
  gtpq::ThreadPool replay_thread_{1};  // last: joined before the rest dies
};

void LayerTracer::MeasureMinimize(const std::vector<Gtpq>& queries) {
  double minimize_us = 0, nodes = 0, min_nodes = 0;
  for (const Gtpq& q : queries) {
    const double t = NowSeconds();
    const Gtpq m = gtpq::Minimize(q);
    minimize_us += (NowSeconds() - t) * 1e6;
    nodes += static_cast<double>(q.NumNodes());
    min_nodes += static_cast<double>(m.NumNodes());
  }
  agg_.layer["analysis.minimize_us"] =
      minimize_us / static_cast<double>(queries.size());
  agg_.layer["analysis.minimized_node_ratio"] = min_nodes / nodes;
}

void LayerTracer::Query(const QueryServer& runtime,
                        const std::function<void()>& serve,
                        const std::string& text, const QueryResult& expected,
                        bool keep_spans, Outcome* out) {
  const double busy0 = runtime.serving_stats().busy_ms * 1e3;
  {
    ScopedSpan span(&recorder_, "request");
    serve();
  }
  const double busy_us = runtime.serving_stats().busy_ms * 1e3 - busy0;
  // The replay runs on a thread of its own, as the served query did:
  // on the main thread, whose heap holds the datasets, the same stages
  // measurably run slower. The main thread waits, so the recorder and
  // the sums are never touched by two threads at once.
  std::promise<void> replayed_on_thread;
  replay_thread_.Submit([&] {
    Replay(runtime, busy_us, text, expected, out);
    replayed_on_thread.set_value();
  });
  replayed_on_thread.get_future().wait();
  recorder_.Clear(keep_spans);
}

void LayerTracer::Replay(const QueryServer& runtime, double busy_us,
                         const std::string& text, const QueryResult& expected,
                         Outcome* out) {
  const std::shared_ptr<const gtpq::EngineSnapshot> snap = runtime.snapshot();
  const gtpq::ReachabilityOracle* inner = snap->oracle();
  if (traced_.empty() || &traced_.back()->inner() != inner) {
    traced_.push_back(std::make_unique<TracedOracle>(*inner, &recorder_));
  }
  TracedOracle& traced = *traced_.back();
  inner->stats().Reset();
  const uint64_t calls0 = traced.calls();
  StageCounts counts;
  QueryResult replayed;
  {
    ScopedSpan span(&recorder_, "replay");
    std::optional<gtpq::Result<Gtpq>> parsed;
    {
      ScopedSpan parse(&recorder_, "query.parse");
      parsed.emplace(gtpq::ParseQuery(text, names_));
    }
    out->Check(parsed->ok());
    if (parsed->ok()) {
      replayed = ReplayStages(snap->graph(), traced, **parsed, shape_.options,
                              &recorder_, &counts);
    }
  }
  // The traced pipeline must answer byte-identically to the untraced one.
  out->Check(replayed == expected);

  const gtpq::IndexStats& reach = inner->stats();
  agg_.reach_calls += static_cast<double>(traced.calls() - calls0);
  agg_.reach_elements += static_cast<double>(reach.elements_looked_up);
  agg_.reach_point_probes += static_cast<double>(reach.queries);
  agg_.counts.Add(counts);

  std::map<std::string, double> self;
  recorder_.AccumulateSelf(&self);
  recorder_.AccumulateTotal(&agg_.total_us);
  const double caller_us = recorder_.RootTotalUs("request");
  double attributed = caller_us - busy_us;  // runtime or wire overhead
  for (const auto& [name, us] : self) {
    const std::string layer = LayerOf(name);
    if (layer == "core" || layer == "reach") attributed += us;
    agg_.self_us[name] += us;
  }
  if (shape_.parses_on_path) {
    // The server parses outside its busy window, so the parse self
    // time is carved out of the wire overhead.
    agg_.layer["net.overhead_us"] += caller_us - busy_us - self["query.parse"];
  } else {
    agg_.layer["runtime.dispatch_us"] += caller_us - busy_us;
  }
  agg_.caller_us += caller_us;
  agg_.attributed_us += attributed;
  ++agg_.queries;
}

void LayerTracer::Finish(const RunConfig& config, double untraced_serve_us,
                         Outcome* out) {
  if (recorder_.WriteChromeTrace(config.span_path)) {
    out->info.push_back("spans: " + config.span_path);
  }
  const TraceAgg& agg = agg_;
  const double n = static_cast<double>(std::max<uint64_t>(agg.queries, 1));
  std::map<std::string, double> v = agg.layer;
  for (const char* key : kPerQuerySums) {
    if (v.count(key)) v[key] /= n;
  }
  auto self = [&](const char* name) {
    auto it = agg.self_us.find(name);
    return it == agg.self_us.end() ? 0.0 : it->second;
  };
  auto total = [&](const char* name) {
    auto it = agg.total_us.find(name);
    return it == agg.total_us.end() ? 0.0 : it->second;
  };
  double reach_us = 0, core_us = 0;
  for (const auto& [name, us] : agg.self_us) {
    if (LayerOf(name) == "reach") reach_us += us;
    if (LayerOf(name) == "core") core_us += us;
  }
  v["query.parse_us"] = self("query.parse") / n;
  v["reach.calls"] = agg.reach_calls / n;
  v["reach.call_us"] = reach_us / n;
  v["reach.elements"] = agg.reach_elements / n;
  v["reach.point_probes"] = agg.reach_point_probes / n;
  v["core.match_ms"] = self("core.match") / n / 1e3;
  v["core.prune_down_ms"] = self("core.prune_down") / n / 1e3;
  v["core.prime_ms"] = self("core.prime") / n / 1e3;
  v["core.prune_up_ms"] = self("core.prune_up") / n / 1e3;
  v["core.matching_graph_ms"] = self("core.matching_graph") / n / 1e3;
  v["core.enumerate_ms"] = self("core.enumerate") / n / 1e3;
  const StageCounts& c = agg.counts;
  v["core.candidates"] = static_cast<double>(c.candidates) / n;
  v["core.after_prune_down"] = static_cast<double>(c.after_prune_down) / n;
  v["core.after_prune_up"] = static_cast<double>(c.after_prune_up) / n;
  v["core.prune_keep_ratio"] =
      c.candidates == 0 ? 0.0
                        : static_cast<double>(c.after_prune_up) /
                              static_cast<double>(c.candidates);
  v["core.matching_graph_size"] =
      static_cast<double>(c.matching_graph_size) / n;
  v["core.result_tuples"] = static_cast<double>(c.result_tuples) / n;
  if (shape_.oracle == StackShape::Oracle::kDeltaOverlay) {
    v["dynamic.probe_us"] = reach_us / n;
  }
  if (shape_.oracle == StackShape::Oracle::kRouter) {
    v["cluster.router_calls"] = agg.reach_point_probes / n;
    v["cluster.router_call_us"] = reach_us / n;
  }
  v["trace.residual_pct"] =
      100.0 * (agg.caller_us - agg.attributed_us) / agg.caller_us;
  v["trace.overhead_pct"] =
      100.0 * (agg.caller_us / n - untraced_serve_us) / untraced_serve_us;

  const double overhead_us =
      (v["net.overhead_us"] + v["runtime.dispatch_us"]) * n;
  const double parse_us = shape_.parses_on_path ? self("query.parse") : 0.0;
  char line[512];
  std::snprintf(line, sizeof(line),
                "trace shares of caller time: %s=%.1f%% query=%.1f%% "
                "core=%.1f%% reach=%.1f%% residual=%.1f%% (queries=%llu)",
                shape_.parses_on_path ? "net" : "runtime",
                100 * overhead_us / agg.caller_us,
                100 * parse_us / agg.caller_us, 100 * core_us / agg.caller_us,
                100 * reach_us / agg.caller_us,
                v["trace.residual_pct"],
                static_cast<unsigned long long>(agg.queries));
  out->info.push_back(line);
  // Each stage with the oracle calls made under it.
  std::string stages = "trace stage shares incl. oracle calls:";
  for (const char* stage :
       {"core.match", "core.prune_down", "core.prime", "core.prune_up",
        "core.matching_graph", "core.enumerate"}) {
    char part[96];
    std::snprintf(part, sizeof(part), " %s=%.1f%%", stage + 5,
                  100 * total(stage) / agg.caller_us);
    stages += part;
  }
  out->info.push_back(stages);

  for (const auto& [name, unit] : LayerMetricNames()) {
    out->Add(name, v.count(name) ? v[name] : 0.0, unit);
  }
}

// ---------------------------------------------------------------------------
// QueryWorkload: the shared pass loop of the read workloads.
// ---------------------------------------------------------------------------

class QueryWorkload : public Workload {
 public:
  void Run(const RunConfig& config, Outcome* out) final;

 protected:
  /// Generates the graph, the ordered query list and the reference
  /// answers. Untimed.
  virtual void Prepare(const RunConfig& config, Outcome* out) = 0;
  /// Brings the serving stack up from the in-memory graph; timed.
  virtual bool SetUp() = 0;
  virtual void TearDown() = 0;
  virtual size_t SetupRepeats() const { return 9; }
  /// One complete pass through the serving stack with the workload's
  /// callers; appends per-query latencies in ms and checks answers.
  virtual void Pass(std::vector<double>* latencies_ms, Outcome* out) {
    for (size_t i = 0; i < queries_.size(); ++i) {
      latencies_ms->push_back(ServeOne(i, out));
    }
  }
  /// Query i through the serving stack on the calling thread; returns
  /// the caller-observed latency in ms.
  virtual double ServeOne(size_t i, Outcome* out) = 0;
  /// ServeOne inside the traced run; may add per-query layer counts.
  virtual void TracedServe(size_t i, std::map<std::string, double>* layer,
                           Outcome* out) {
    (void)layer;
    ServeOne(i, out);
  }
  /// The runtime whose busy time and oracle the traced run reads.
  virtual const QueryServer& Runtime() const = 0;
  virtual StackShape Shape() const { return {}; }
  /// Layer values measured once per traced run (build, storage, ...).
  virtual void OneShotLayers(std::map<std::string, double>* layer,
                             Outcome* out) = 0;
  /// Appends the run stamp's graph line once the stack is up (some
  /// stacks only know their index size then).
  virtual void Stamp(Outcome* out) const { (void)out; }
  /// Brings up a fresh write twin: a second instance of the serving
  /// stack over the same dataset, untimed.
  virtual bool SetUpWriter() = 0;
  virtual void TearDownWriter() = 0;
  /// The batches one write cycle applies in order, valid against the
  /// dataset.
  virtual std::vector<UpdateBatch> WriteStream() = 0;
  /// Applies one batch through the write twin's stack.
  virtual Status ApplyWrite(const UpdateBatch& batch) = 0;

  const DataGraph* graph_ = nullptr;
  std::vector<Gtpq> queries_;
  std::vector<std::string> texts_;
  std::vector<QueryResult> expected_;

 private:
  void RunTimed(const RunConfig& config, Outcome* out);
  void RunTraced(const RunConfig& config, Outcome* out);
  /// Applies `writes` in order through a fresh write twin; appends each
  /// batch's latency in ms to `update_ms` unless it is null (warm-up).
  void WriteCycle(const std::vector<UpdateBatch>& writes,
                  std::vector<double>* update_ms, Outcome* out);

  std::vector<double> setup_samples_;
};

void QueryWorkload::Run(const RunConfig& config, Outcome* out) {
  Prepare(config, out);
  ResetPeakRss();
  for (const Gtpq& q : queries_) {
    texts_.push_back(q.ToString(graph_->attr_names()));
  }
  for (size_t k = 0; k < SetupRepeats(); ++k) {
    if (k > 0) TearDown();
    const double t = NowSeconds();
    const bool up = SetUp();
    setup_samples_.push_back(NowSeconds() - t);
    out->Check(up);
    if (!up) return;
  }
  Stamp(out);
  std::vector<double> warm;
  Pass(&warm, out);  // untimed warm-up
  if (config.trace) {
    RunTraced(config, out);
  } else {
    RunTimed(config, out);
  }
}

void QueryWorkload::RunTimed(const RunConfig& config, Outcome* out) {
  const std::vector<UpdateBatch> writes = WriteStream();
  out->Check(!writes.empty());
  std::vector<double> latencies, pass_s, update_ms;
  double cpu_ms = 0, rss_mb = 0;
  size_t cycles = 0;
  const double start = NowSeconds();
  const double deadline = start + config.seconds;
  while (pass_s.size() < kMinTimedPasses || NowSeconds() < deadline) {
    const double cpu0 = ProcessCpuMs();
    const double t = NowSeconds();
    Pass(&latencies, out);
    pass_s.push_back(NowSeconds() - t);
    cpu_ms += ProcessCpuMs() - cpu0;
    // Before the first write twin exists: rss_mb is the serving stack's
    // own, which has reached its peak after the warm-up pass.
    if (cycles == 0) rss_mb = PeakRssMb();
    // The write cycles are spread over the run, as the passes are, so a
    // short host disturbance moves a few samples rather than all.
    while (cycles < kWriteCycles &&
           NowSeconds() - start >=
               config.seconds * static_cast<double>(cycles) / kWriteCycles) {
      WriteCycle(writes, cycles++ > 0 ? &update_ms : nullptr, out);
    }
  }
  while (cycles < kWriteCycles) {
    WriteCycle(writes, cycles++ > 0 ? &update_ms : nullptr, out);
  }

  std::vector<double> sorted = latencies;
  char line[256];
  std::snprintf(line, sizeof(line),
                "timed: passes=%zu (%.3f..%.3f s) queries/pass=%zu "
                "samples=%zu latency_ms.p99=%.4f (not gated; %zu samples "
                "beyond it) updates=%zu on the write twin",
                pass_s.size(), *std::min_element(pass_s.begin(), pass_s.end()),
                *std::max_element(pass_s.begin(), pass_s.end()),
                queries_.size(), latencies.size(), Percentile(&sorted, 0.99),
                latencies.size() / 100, update_ms.size());
  out->info.push_back(line);
  out->Add("setup_s", Median(setup_samples_), "s");
  out->Add("qps", static_cast<double>(queries_.size()) / Median(pass_s),
           "1/s");
  out->Add("latency_ms.p50", Median(latencies), "ms");
  out->Add("update_ms.p50", Median(update_ms), "ms");
  out->Add("cpu_ms_per_query",
           cpu_ms / static_cast<double>(latencies.size()), "ms");
  out->Add("rss_mb", rss_mb, "MiB");
}

void QueryWorkload::WriteCycle(const std::vector<UpdateBatch>& writes,
                               std::vector<double>* update_ms, Outcome* out) {
  const bool up = SetUpWriter();
  out->Check(up);
  if (!up) return;
  for (const UpdateBatch& batch : writes) {
    const double t = NowSeconds();
    const Status s = ApplyWrite(batch);
    if (update_ms != nullptr) update_ms->push_back((NowSeconds() - t) * 1e3);
    out->Check(s.ok());
    if (!s.ok()) out->info.push_back("update failed: " + s.ToString());
  }
  TearDownWriter();
}

// Half the budget serves queries serially untraced; the other half
// serves each query again and then replays it traced. The serve-only
// latencies of the two halves give the tracing overhead.
void QueryWorkload::RunTraced(const RunConfig& config, Outcome* out) {
  LayerTracer tracer(*graph_, Shape());
  OneShotLayers(&tracer.layer(), out);
  tracer.MeasureMinimize(queries_);
  double untraced_us = 0;
  size_t untraced_n = 0;
  double deadline = NowSeconds() + config.seconds / 2;
  while (untraced_n == 0 || NowSeconds() < deadline) {
    for (size_t i = 0; i < queries_.size(); ++i) {
      untraced_us += ServeOne(i, out) * 1e3;
      ++untraced_n;
    }
  }
  deadline = NowSeconds() + config.seconds / 2;
  for (size_t pass = 0; pass == 0 || NowSeconds() < deadline; ++pass) {
    for (size_t i = 0; i < queries_.size(); ++i) {
      tracer.Query(
          Runtime(), [&] { TracedServe(i, &tracer.layer(), out); },
          texts_[i], expected_[i], pass == 0, out);
    }
  }
  tracer.Finish(config, untraced_us / static_cast<double>(untraced_n), out);
}

// ---------------------------------------------------------------------------
// xmark-logical: the paper's Exp-2 logical GTPQs plus Q1-Q3 over every
// person group, one caller, in-process QueryServer with one worker.
// ---------------------------------------------------------------------------

class XmarkLogical final : public QueryWorkload {
 protected:
  void Prepare(const RunConfig& config, Outcome* out) override {
    gtpq::workload::XmarkOptions xo;
    xo.scale = kXmarkScale;
    xo.seed = 2012;
    graph_storage_ = gtpq::workload::GenerateXmark(xo);
    graph_ = &graph_storage_;
    const DataGraph& g = graph_storage_;
    for (int pg = 0; pg < gtpq::workload::kNumGroups; ++pg) {
      const int ig = (pg * 3 + 1) % gtpq::workload::kNumGroups;
      const int pg2 = (pg + 1) % gtpq::workload::kNumGroups;
      queries_.push_back(gtpq::workload::BuildXmarkQ1(g, pg).query);
      queries_.push_back(gtpq::workload::BuildXmarkQ2(g, pg, ig).query);
      queries_.push_back(gtpq::workload::BuildXmarkQ3(g, pg, ig, pg2).query);
      for (const std::string& name : gtpq::workload::Exp2QueryNames()) {
        auto q = gtpq::workload::BuildExp2Query(g, pg, ig, name);
        out->Check(q.ok());
        if (q.ok()) queries_.push_back(std::move(q->query));
      }
    }
    Permute(&queries_, config.seed);
    // Reference: the same queries over an independent backend.
    gtpq::GteaEngine reference(
        g, gtpq::MakeReachabilityIndex(gtpq::ReachabilityBackend::kInterval,
                                       g.graph()));
    expected_ = Answers(reference, queries_);

    const std::string index_path = config.work_dir + "/xmark.gtpqidx";
    auto contour = gtpq::MakeReachabilityIndex("contour", g.graph());
    out->Check(gtpq::storage::SaveReachabilityIndex(*contour, g.graph(),
                                                    index_path)
                   .ok());
    index_bytes_ = FileBytes(index_path);
    out->info.push_back(GraphStamp("xmark contour", g,
                                   index_bytes_, queries_.size()));
  }

  bool SetUp() override {
    server_ = MakeServer();
    return server_->status().ok();
  }
  void TearDown() override { server_.reset(); }
  bool SetUpWriter() override {
    writer_ = MakeServer();
    return writer_->status().ok();
  }
  void TearDownWriter() override { writer_.reset(); }

  double ServeOne(size_t i, Outcome* out) override {
    const double t = NowSeconds();
    auto results = server_->EvaluateBatch(std::span(&queries_[i], 1));
    const double ms = (NowSeconds() - t) * 1e3;
    out->Check(results.size() == 1 && results[0] == expected_[i]);
    return ms;
  }
  const QueryServer& Runtime() const override { return *server_; }

  void OneShotLayers(std::map<std::string, double>* layer,
                     Outcome* /*out*/) override {
    const double t = NowSeconds();
    auto index = gtpq::MakeReachabilityIndex("contour", graph_->graph());
    (*layer)["reach.build_ms"] = (NowSeconds() - t) * 1e3;
    (*layer)["storage.index_bytes"] = static_cast<double>(index_bytes_);
  }

  std::vector<UpdateBatch> WriteStream() override {
    return LiveStream(graph_storage_);
  }
  Status ApplyWrite(const UpdateBatch& batch) override {
    return writer_->ApplyUpdates(batch);
  }

 private:
  std::unique_ptr<QueryServer> MakeServer() const {
    gtpq::QueryServerOptions options;
    options.num_threads = 1;
    options.engine_spec = "gtea";
    return std::make_unique<QueryServer>(graph_storage_, options);
  }

  DataGraph graph_storage_;
  uint64_t index_bytes_ = 0;
  std::unique_ptr<QueryServer> server_;
  std::unique_ptr<QueryServer> writer_;
};

// ---------------------------------------------------------------------------
// wire-read: arXiv-like DAG, logical random GTPQs over gtpq-wire; the
// index is built, saved and served through mmap: by an in-process
// NetServer driven by 2 closed-loop loopback connections. One worker
// serves both connections, so one query waits in the dispatcher while
// the other runs.
// ---------------------------------------------------------------------------

class WireRead final : public QueryWorkload {
 protected:
  size_t SetupRepeats() const override { return 3; }

  void Prepare(const RunConfig& config, Outcome* out) override {
    graph_storage_ = gtpq::workload::GenerateArxiv({});
    graph_ = &graph_storage_;
    const DataGraph& g = graph_storage_;
    queries_ = LogicalRandomQueries(g, /*seed=*/1, kWireQueries);
    out->Check(queries_.size() == kWireQueries);
    Permute(&queries_, config.seed);
    // Reference: the golden transitive-closure backend (the graph is
    // small enough to materialize it).
    gtpq::GteaEngine reference(
        g, gtpq::MakeReachabilityIndex(
               gtpq::ReachabilityBackend::kTransitiveClosure, g.graph()));
    expected_ = Answers(reference, queries_);
    index_path_ = config.work_dir + "/arxiv.gtpqidx";
  }

  bool SetUp() override {
    const double t0 = NowSeconds();
    auto index = gtpq::MakeReachabilityIndex("contour", graph_->graph());
    const double t1 = NowSeconds();
    if (!gtpq::storage::SaveReachabilityIndex(*index, graph_->graph(),
                                              index_path_)
             .ok()) {
      return false;
    }
    build_ms_ = (t1 - t0) * 1e3;
    save_ms_ = (NowSeconds() - t1) * 1e3;
    server_ = std::make_unique<gtpq::net::NetServer>(graph_storage_,
                                                     ServerOptions());
    if (!server_->Start().ok()) return false;
    clients_.clear();
    for (size_t c = 0; c < kWireConnections; ++c) {
      clients_.push_back(std::make_unique<gtpq::net::NetClient>());
      if (!gtpq::net::ConnectWithRetry(clients_.back().get(), "127.0.0.1",
                                       server_->port())
               .ok()) {
        return false;
      }
    }
    return server_->runtime().engine_name().find("contour") !=
           std::string::npos;
  }
  void TearDown() override {
    clients_.clear();
    server_.reset();
  }

  // Connection c serves queries c, c + 2, c + 4, ... in order.
  void Pass(std::vector<double>* latencies_ms, Outcome* out) override {
    std::vector<std::vector<double>> lat(kWireConnections);
    std::vector<Outcome> outs(kWireConnections);
    std::vector<std::thread> callers;
    for (size_t c = 0; c < kWireConnections; ++c) {
      callers.emplace_back([&, c] {
        for (size_t i = c; i < queries_.size(); i += kWireConnections) {
          lat[c].push_back(Call(c, i, &outs[c]));
        }
      });
    }
    for (std::thread& caller : callers) caller.join();
    for (size_t c = 0; c < kWireConnections; ++c) {
      latencies_ms->insert(latencies_ms->end(), lat[c].begin(), lat[c].end());
      out->attempted += outs[c].attempted;
      out->failed += outs[c].failed;
    }
  }
  double ServeOne(size_t i, Outcome* out) override { return Call(0, i, out); }
  void Stamp(Outcome* out) const override {
    out->info.push_back(GraphStamp("arxiv contour via mmap", *graph_,
                                   FileBytes(index_path_), queries_.size()));
  }
  const QueryServer& Runtime() const override { return server_->runtime(); }
  StackShape Shape() const override {
    StackShape shape;
    shape.parses_on_path = true;
    return shape;
  }

  void OneShotLayers(std::map<std::string, double>* layer,
                     Outcome* out) override {
    (*layer)["reach.build_ms"] = build_ms_;
    (*layer)["storage.save_ms"] = save_ms_;
    (*layer)["storage.index_bytes"] =
        static_cast<double>(FileBytes(index_path_));
    double t = NowSeconds();
    auto mapped =
        gtpq::storage::LoadReachabilityIndexView(index_path_, graph_->graph());
    (*layer)["storage.map_ms"] = (NowSeconds() - t) * 1e3;
    out->Check(mapped.ok());
    // Codec cost and payload size of each query's request and answer.
    double codec_us = 0, bytes = 0;
    for (size_t i = 0; i < queries_.size(); ++i) {
      t = NowSeconds();
      gtpq::net::QueryRequest request;
      request.text = texts_[i];
      const std::string req = gtpq::net::EncodeQueryRequest(request);
      gtpq::net::QueryRequest req_back;
      const bool req_ok =
          gtpq::net::DecodeQueryRequest(req, &req_back).ok();
      gtpq::net::WireResult result;
      result.result = expected_[i];
      const std::string res = gtpq::net::EncodeResult(result);
      gtpq::net::WireResult res_back;
      const bool res_ok = gtpq::net::DecodeResult(res, &res_back).ok();
      codec_us += (NowSeconds() - t) * 1e6;
      out->Check(req_ok && req_back.text == texts_[i] && res_ok &&
                 res_back.result == expected_[i]);
      bytes += static_cast<double>(req.size() + res.size());
    }
    const double n = static_cast<double>(queries_.size());
    (*layer)["net.codec_us"] = codec_us / n;
    (*layer)["net.bytes"] = bytes / n;
    // Coalescing under the workload's own two callers.
    const auto before = server_->counters();
    std::vector<double> lat;
    Pass(&lat, out);
    const auto after = server_->counters();
    (*layer)["net.queries_per_dispatch"] =
        static_cast<double>(after.queries_served - before.queries_served) /
        static_cast<double>(std::max<uint64_t>(
            1, after.batches_dispatched - before.batches_dispatched));
  }

  // The twin maps the same index file, so it shares its pages.
  bool SetUpWriter() override {
    writer_ = std::make_unique<gtpq::net::NetServer>(graph_storage_,
                                                     ServerOptions());
    writer_client_ = std::make_unique<gtpq::net::NetClient>();
    return writer_->Start().ok() &&
           gtpq::net::ConnectWithRetry(writer_client_.get(), "127.0.0.1",
                                       writer_->port())
               .ok();
  }
  void TearDownWriter() override {
    writer_client_.reset();
    writer_.reset();
  }
  std::vector<UpdateBatch> WriteStream() override {
    return LiveStream(graph_storage_);
  }
  Status ApplyWrite(const UpdateBatch& batch) override {
    auto applied = writer_client_->ApplyUpdates(std::span(&batch, 1));
    return applied.ok() ? Status::OK() : applied.status();
  }

 private:
  gtpq::net::NetServerOptions ServerOptions() const {
    gtpq::net::NetServerOptions so;
    so.runtime.num_threads = kWirePool;
    so.runtime.engine_spec = "gtea:mmap:" + index_path_;
    // No coalescing wait: with the 200 us default the dispatcher's timed
    // wait left the one CPU idle for 7-25% of a run, as long as the
    // hypervisor took to wake it, and qps spread twice as much as CPU
    // per query over ten seeds. Requests already queued still coalesce.
    so.coalesce_window_us = 0;
    return so;
  }

  double Call(size_t c, size_t i, Outcome* out) {
    const double t = NowSeconds();
    auto answer = clients_[c]->Query(texts_[i]);
    const double ms = (NowSeconds() - t) * 1e3;
    out->Check(answer.ok() && answer->result == expected_[i]);
    return ms;
  }

  DataGraph graph_storage_;
  std::string index_path_;
  double build_ms_ = 0, save_ms_ = 0;
  std::unique_ptr<gtpq::net::NetServer> server_;
  std::vector<std::unique_ptr<gtpq::net::NetClient>> clients_;
  std::unique_ptr<gtpq::net::NetServer> writer_;
  std::unique_ptr<gtpq::net::NetClient> writer_client_;
};

// ---------------------------------------------------------------------------
// cluster-route: random digraph in 3 contiguous shards, each an
// in-process NetServer (1 worker); one caller queries a QueryServer whose
// engine is gtea:cluster:<map>@<endpoints>, so every reachability probe
// is a PROBE frame to a shard: a loopback round trip between threads
// on the one CPU the process runs on (PinToQuietCpu).
// ---------------------------------------------------------------------------

class ClusterRoute final : public QueryWorkload {
 protected:
  void Prepare(const RunConfig& config, Outcome* out) override {
    work_dir_ = config.work_dir;
    gtpq::RandomDigraphOptions go;
    go.num_nodes = kClusterNodes;
    go.avg_degree = 3.0;
    go.num_labels = 64;
    go.seed = 7;
    graph_storage_ = gtpq::RandomDigraph(go);
    graph_ = &graph_storage_;
    const DataGraph& g = graph_storage_;
    for (uint64_t i = 0; queries_.size() < kClusterQueries &&
                         i < 64 * kClusterQueries;
         ++i) {
      gtpq::QueryGenOptions qo;
      qo.num_nodes = 4 + i % 3;
      qo.pc_probability = 0.2;
      qo.output_fraction = 0.6;
      qo.seed = 1000003 + i;
      auto q = gtpq::GenerateRandomQuery(g, qo);
      if (q.has_value()) queries_.push_back(std::move(*q));
    }
    out->Check(queries_.size() == kClusterQueries);
    Permute(&queries_, config.seed);
    // Reference: the unpartitioned in-process engine.
    gtpq::GteaEngine reference(g);
    expected_ = Answers(reference, queries_, options_);
  }

  bool SetUp() override {
    const std::string dir =
        work_dir_ + "/cluster" + std::to_string(generation_++);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) return false;
    const double t0 = NowSeconds();
    gtpq::cluster::BuildPartitionOptions po;
    po.plan.num_shards = kClusterShards;
    po.inner_spec = "interval";
    auto built = gtpq::cluster::BuildPartition(graph_storage_, po, dir);
    if (!built.ok()) return false;
    partition_s_ = NowSeconds() - t0;
    built_ = built.TakeValue();
    index_bytes_ = 0;
    for (const std::string& path : built_.index_paths) {
      index_bytes_ += FileBytes(path);
    }
    return Start(&serving_);
  }
  void TearDown() override { Stop(&serving_); }
  // The twin runs its own shard servers over the same partition files.
  bool SetUpWriter() override { return Start(&writer_); }
  void TearDownWriter() override { Stop(&writer_); }

  double ServeOne(size_t i, Outcome* out) override {
    const double t = NowSeconds();
    auto results = serving_.router->EvaluateBatch(std::span(&queries_[i], 1),
                                                  nullptr, options_);
    const double ms = (NowSeconds() - t) * 1e3;
    out->Check(results.size() == 1 && results[0] == expected_[i]);
    return ms;
  }
  const QueryServer& Runtime() const override { return *serving_.router; }
  StackShape Shape() const override {
    StackShape shape;
    shape.oracle = StackShape::Oracle::kRouter;
    shape.options = options_;
    return shape;
  }
  void Stamp(Outcome* out) const override {
    out->info.push_back(GraphStamp("digraph in 3 shards, interval", *graph_,
                                   index_bytes_, queries_.size()));
  }

  void TracedServe(size_t i, std::map<std::string, double>* layer,
                   Outcome* out) override {
    const uint64_t probes0 = ShardProbes();
    const uint64_t bytes0 = WireBytes();
    ServeOne(i, out);
    (*layer)["cluster.probe_frames"] +=
        static_cast<double>(ShardProbes() - probes0);
    (*layer)["cluster.wire_bytes"] +=
        static_cast<double>(WireBytes() - bytes0);
  }

  void OneShotLayers(std::map<std::string, double>* layer,
                     Outcome* /*out*/) override {
    (*layer)["reach.build_ms"] = router_build_ms_;
    (*layer)["cluster.partition_s"] = partition_s_;
    (*layer)["storage.index_bytes"] = static_cast<double>(index_bytes_);
  }

  // kLiveRounds batches of kLiveOpsPerRound intra-shard edge
  // insertions, one owning shard per batch: the only update shape the
  // router applies natively. Fixed like the stream of the other stacks.
  std::vector<UpdateBatch> WriteStream() override {
    gtpq::Rng rng(7919);
    std::vector<UpdateBatch> batches;
    std::set<std::pair<gtpq::NodeId, gtpq::NodeId>> added;
    const gtpq::cluster::PartitionMap& map = built_.map;
    for (size_t b = 0; b < kLiveRounds; ++b) {
      const auto& range = map.ranges[b % map.num_shards()];
      const uint64_t span = range.end - range.begin;
      UpdateBatch batch;
      while (batch.add_edges.size() < kLiveOpsPerRound) {
        const auto u = static_cast<gtpq::NodeId>(range.begin +
                                                 rng.NextBounded(span));
        const auto v = static_cast<gtpq::NodeId>(range.begin +
                                                 rng.NextBounded(span));
        if (u == v || graph_storage_.graph().HasEdge(u, v) ||
            !added.insert({u, v}).second) {
          continue;
        }
        batch.add_edges.push_back({u, v});
      }
      batches.push_back(std::move(batch));
    }
    return batches;
  }
  Status ApplyWrite(const UpdateBatch& batch) override {
    return writer_.router->ApplyUpdates(batch);
  }

 private:
  /// Shard servers plus the router runtime in front of them. Members
  /// are destroyed router first, then the servers, then their graphs.
  struct Cluster {
    std::vector<std::unique_ptr<DataGraph>> shard_graphs;
    std::vector<std::unique_ptr<gtpq::net::NetServer>> shards;
    std::unique_ptr<QueryServer> router;
  };

  /// Router first: it holds connections to the shards, which serve
  /// their graphs.
  static void Stop(Cluster* cluster) {
    cluster->router.reset();
    cluster->shards.clear();
    cluster->shard_graphs.clear();
  }

  /// Starts one cluster from the current partition artifacts.
  bool Start(Cluster* cluster) {
    std::string endpoints;
    for (size_t s = 0; s < built_.map.num_shards(); ++s) {
      auto local = gtpq::LoadDataGraphFromFile(built_.graph_paths[s]);
      if (!local.ok()) return false;
      cluster->shard_graphs.push_back(
          std::make_unique<DataGraph>(local.TakeValue()));
      gtpq::net::NetServerOptions so;
      so.runtime.num_threads = 1;
      so.runtime.engine_spec = "gtea:file:" + built_.index_paths[s];
      cluster->shards.push_back(std::make_unique<gtpq::net::NetServer>(
          *cluster->shard_graphs.back(), so));
      if (!cluster->shards.back()->Start().ok()) return false;
      if (!endpoints.empty()) endpoints += ',';
      endpoints +=
          "127.0.0.1:" + std::to_string(cluster->shards.back()->port());
    }
    const double t = NowSeconds();
    gtpq::QueryServerOptions ro;
    ro.num_threads = 1;
    ro.engine_spec = "gtea:cluster:" + built_.map_path + "@" + endpoints;
    cluster->router = std::make_unique<QueryServer>(graph_storage_, ro);
    router_build_ms_ = (NowSeconds() - t) * 1e3;
    // A router that failed to connect would fall back to a local
    // oracle and measure single-node numbers as cluster numbers.
    return cluster->router->status().ok() &&
           cluster->router->engine_name().find("cluster:") !=
               std::string::npos;
  }

  uint64_t ShardProbes() const {
    uint64_t total = 0;
    for (const auto& shard : serving_.shards) {
      total += shard->counters().probes_served;
    }
    return total;
  }
  static uint64_t WireBytes() {
    gtpq::obs::Registry& reg = gtpq::obs::Registry::Global();
    return reg.GetCounter("gtpq_net_bytes_received_total")->Value() +
           reg.GetCounter("gtpq_net_bytes_sent_total")->Value();
  }

  // Answers on a strongly connected random digraph are Cartesian
  // products of whole label classes; the cap keeps enumeration from
  // swamping the routed probes this workload exists to measure.
  const gtpq::GteaOptions options_ = [] {
    gtpq::GteaOptions options;
    options.result_limit = kClusterResultLimit;
    return options;
  }();
  std::string work_dir_;
  size_t generation_ = 0;
  DataGraph graph_storage_;
  gtpq::cluster::PartitionArtifacts built_;
  double partition_s_ = 0, router_build_ms_ = 0;
  uint64_t index_bytes_ = 0;
  Cluster serving_;
  Cluster writer_;
};

// ---------------------------------------------------------------------------
// live-update: writes beside reads. One caller alternates one update
// batch with one pass of queries through an in-process QueryServer
// (1 worker). A cycle starts from a freshly built server, so every
// cycle does identical work: kLiveRounds x (batch, pass).
// ---------------------------------------------------------------------------

class LiveUpdate final : public Workload {
 public:
  void Run(const RunConfig& config, Outcome* out) override {
    gtpq::workload::ArxivOptions ao;
    graph_ = gtpq::workload::GenerateArxiv(ao);
    queries_ = LogicalRandomQueries(graph_, /*seed=*/2, kLiveQueries);
    out->Check(queries_.size() == kLiveQueries);
    Permute(&queries_, config.seed);
    for (const Gtpq& q : queries_) {
      texts_.push_back(q.ToString(std::as_const(graph_).attr_names()));
    }
    batches_ = LiveStream(graph_);
    out->Check(batches_.size() == kLiveRounds);

    // Reference: after each batch, a rebuild of the golden closure over
    // the materialized graph.
    {
      QueryServer mirror(graph_, ServerOptions());
      for (const UpdateBatch& batch : batches_) {
        out->Check(mirror.ApplyUpdates(batch).ok());
        const auto snap = mirror.snapshot();
        gtpq::GteaEngine reference(
            snap->graph(),
            gtpq::MakeReachabilityIndex(
                gtpq::ReachabilityBackend::kTransitiveClosure,
                snap->graph().graph()));
        expected_.push_back(Answers(reference, queries_));
      }
    }
    auto contour = gtpq::MakeReachabilityIndex("contour", graph_.graph());
    const std::string index_path = config.work_dir + "/live.gtpqidx";
    out->Check(gtpq::storage::SaveReachabilityIndex(*contour, graph_.graph(),
                                                    index_path)
                   .ok());
    index_bytes_ = FileBytes(index_path);
    out->info.push_back(GraphStamp("arxiv contour", graph_, index_bytes_,
                                   queries_.size()));
    ResetPeakRss();

    Cycle(nullptr, out);  // untimed warm-up
    std::vector<double> setup_s, cycle_qps, latencies, update_ms;
    setup_s.push_back(last_setup_s_);
    if (config.trace) {
      RunTraced(config, out);
      return;
    }
    double cpu_ms = 0;
    size_t timed_queries = 0;
    const double deadline = NowSeconds() + config.seconds;
    while (cycle_qps.size() < kMinTimedPasses || NowSeconds() < deadline) {
      CycleSamples s;
      Cycle(&s, out);
      setup_s.push_back(last_setup_s_);
      cycle_qps.push_back(static_cast<double>(s.latencies.size()) /
                          (s.query_ms / 1e3));
      timed_queries += s.latencies.size();
      cpu_ms += s.query_cpu_ms;
      latencies.insert(latencies.end(), s.latencies.begin(),
                       s.latencies.end());
      update_ms.insert(update_ms.end(), s.update_ms.begin(),
                       s.update_ms.end());
    }
    std::vector<double> sorted = latencies;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "timed: cycles=%zu queries/cycle=%zu samples=%zu "
                  "latency_ms.p99=%.4f (not gated; %zu samples beyond it)",
                  cycle_qps.size(), kLiveRounds * kLiveQueries,
                  latencies.size(), Percentile(&sorted, 0.99),
                  latencies.size() / 100);
    out->info.push_back(line);
    out->Add("setup_s", Median(setup_s), "s");
    out->Add("qps", Median(cycle_qps), "1/s");
    out->Add("latency_ms.p50", Median(latencies), "ms");
    out->Add("update_ms.p50", Median(update_ms), "ms");
    out->Add("cpu_ms_per_query",
             cpu_ms / static_cast<double>(timed_queries), "ms");
    out->Add("rss_mb", PeakRssMb(), "MiB");
  }

 private:
  struct CycleSamples {
    std::vector<double> latencies;
    std::vector<double> update_ms;
    double query_ms = 0;
    double query_cpu_ms = 0;
  };

  gtpq::QueryServerOptions ServerOptions() const {
    gtpq::QueryServerOptions options;
    options.num_threads = 1;
    options.engine_spec = "gtea";
    return options;
  }

  void Build() {
    server_.reset();
    const double t = NowSeconds();
    server_ = std::make_unique<QueryServer>(graph_, ServerOptions());
    last_setup_s_ = NowSeconds() - t;
  }

  void Cycle(CycleSamples* samples, Outcome* out) {
    Build();
    out->Check(server_->status().ok());
    for (size_t r = 0; r < kLiveRounds; ++r) {
      double t = NowSeconds();
      const Status s = server_->ApplyUpdates(batches_[r]);
      const double update_ms = (NowSeconds() - t) * 1e3;
      out->Check(s.ok());
      const double cpu0 = ProcessCpuMs();
      for (size_t i = 0; i < queries_.size(); ++i) {
        t = NowSeconds();
        auto results = server_->EvaluateBatch(std::span(&queries_[i], 1));
        const double ms = (NowSeconds() - t) * 1e3;
        out->Check(results.size() == 1 && results[0] == expected_[r][i]);
        if (samples != nullptr) {
          samples->latencies.push_back(ms);
          samples->query_ms += ms;
        }
      }
      if (samples != nullptr) {
        samples->update_ms.push_back(update_ms);
        samples->query_cpu_ms += ProcessCpuMs() - cpu0;
      }
    }
  }

  void RunTraced(const RunConfig& config, Outcome* out) {
    StackShape shape;
    shape.oracle = StackShape::Oracle::kDeltaOverlay;
    LayerTracer tracer(graph_, shape);
    std::map<std::string, double>& layer = tracer.layer();
    {
      const double t = NowSeconds();
      auto index = gtpq::MakeReachabilityIndex("contour", graph_.graph());
      layer["reach.build_ms"] = (NowSeconds() - t) * 1e3;
    }
    layer["storage.index_bytes"] = static_cast<double>(index_bytes_);
    tracer.MeasureMinimize(queries_);
    double untraced_us = 0;
    size_t untraced_n = 0;
    double deadline = NowSeconds() + config.seconds / 2;
    while (untraced_n == 0 || NowSeconds() < deadline) {
      CycleSamples s;
      Cycle(&s, out);
      untraced_us += s.query_ms * 1e3;
      untraced_n += s.latencies.size();
    }
    double with_updates_ms = 0, install_ms = 0;
    size_t updates = 0;
    deadline = NowSeconds() + config.seconds / 2;
    for (size_t cycle = 0; cycle == 0 || NowSeconds() < deadline; ++cycle) {
      Build();
      for (size_t r = 0; r < kLiveRounds; ++r) {
        // WithUpdates on the serving oracle, as the engine factory calls
        // it, then the whole install through the runtime.
        const auto before = server_->snapshot();
        std::shared_ptr<const gtpq::ReachabilityOracle> current(
            before, before->oracle());
        auto overlay =
            std::dynamic_pointer_cast<const gtpq::DeltaOverlayOracle>(current);
        if (overlay == nullptr) {
          overlay = std::make_shared<const gtpq::DeltaOverlayOracle>(
              current, &before->graph().graph());
        }
        double t = NowSeconds();
        out->Check(overlay->WithUpdates(batches_[r]).ok());
        const double with_ms = (NowSeconds() - t) * 1e3;
        t = NowSeconds();
        out->Check(server_->ApplyUpdates(batches_[r]).ok());
        const double apply_ms = (NowSeconds() - t) * 1e3;
        with_updates_ms += with_ms;
        install_ms += apply_ms - with_ms;
        ++updates;
        for (size_t i = 0; i < queries_.size(); ++i) {
          tracer.Query(
              *server_,
              [&] {
                auto results =
                    server_->EvaluateBatch(std::span(&queries_[i], 1));
                out->Check(results.size() == 1 &&
                           results[0] == expected_[r][i]);
              },
              texts_[i], expected_[r][i], cycle == 0, out);
        }
      }
    }
    const auto* overlay = dynamic_cast<const gtpq::DeltaOverlayOracle*>(
        server_->snapshot()->oracle());
    layer["dynamic.pending_ops"] =
        overlay ? static_cast<double>(overlay->PendingOps()) : 0.0;
    layer["dynamic.compactions"] =
        overlay ? static_cast<double>(overlay->compactions()) : 0.0;
    layer["dynamic.with_updates_ms"] =
        with_updates_ms / static_cast<double>(updates);
    layer["runtime.install_ms"] = install_ms / static_cast<double>(updates);
    tracer.Finish(config, untraced_us / static_cast<double>(untraced_n), out);
  }

  DataGraph graph_;
  std::vector<Gtpq> queries_;
  std::vector<std::string> texts_;
  std::vector<UpdateBatch> batches_;
  std::vector<std::vector<QueryResult>> expected_;  // [round][query]
  uint64_t index_bytes_ = 0;
  double last_setup_s_ = 0;
  std::unique_ptr<QueryServer> server_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "xmark-logical") return std::make_unique<XmarkLogical>();
  if (name == "wire-read") return std::make_unique<WireRead>();
  if (name == "live-update") return std::make_unique<LiveUpdate>();
  if (name == "cluster-route") return std::make_unique<ClusterRoute>();
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  return {"xmark-logical", "wire-read", "live-update", "cluster-route"};
}

}  // namespace perfbench

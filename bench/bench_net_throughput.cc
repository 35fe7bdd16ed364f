// Network serving throughput: N client threads, each pipelining D
// one-query gtpq-wire BATCH frames over its own TCP connection,
// against either a self-hosted NetServer (default) or an external
// `gteactl serve` (--connect=). Reports qps and p50/p99 request latency per
// (clients, pipeline) configuration, verifies every wire answer
// differentially against an independent in-process QueryServer over
// the same workload, and (self-hosted) cross-checks the server
// runtime's query count against the client-side request count.
//
//   --clients=1,2,4            client-thread sweep (each 1..1024)
//   --pipeline=8               pipelining depth per connection
//   --queries=32               distinct random queries in the pool
//   --requests=256             requests per client per configuration
//   --limit=64                 per-query result cap sent on the wire
//   --threads=4                server pool threads (self-hosted mode)
//   --connect=host:port        drive an external server instead; the
//                              workload graph is rebuilt locally from
//                              --gen= (must match the server's graph)
//   --gen=dag:2000,7           workload graph generator (--connect mode;
//                              self-hosted mode scales with
//                              GTPQ_BENCH_SCALE like the other benches)
//   --json=<path>              machine-readable rows (CI perf tracking)
//   --quiet                    suppress log output below error level
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/harness.h"
#include "common/logging.h"
#include "common/timer.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "query/query_generator.h"
#include "runtime/query_server.h"
#include "workload/graph_gen_spec.h"

using namespace gtpq;
using namespace gtpq::bench;

namespace {

constexpr char kEngineSpec[] = "gtea";

struct ClientStats {
  std::vector<double> latencies_us;
  uint64_t mismatches = 0;
  uint64_t errors = 0;
};

/// One client connection driving `requests` pipelined queries.
ClientStats RunClient(const std::string& host, uint16_t port,
                      const std::vector<std::string>& texts,
                      const std::vector<QueryResult>& expected,
                      size_t requests, size_t pipeline, uint64_t limit) {
  ClientStats out;
  net::NetClient client;
  // Retry ECONNREFUSED with bounded backoff: in CI the external server
  // may still be binding when the bench launches, and a fixed sleep in
  // the workflow is exactly the race this absorbs.
  const Status connected = net::ConnectWithRetry(&client, host, port);
  if (!connected.ok()) {
    std::fprintf(stderr, "client: %s\n", connected.ToString().c_str());
    out.errors = requests;
    return out;
  }
  Timer clock;
  struct InFlight {
    size_t query_index;
    double sent_us;
  };
  std::unordered_map<uint64_t, InFlight> inflight;
  size_t sent = 0, done = 0;

  auto send_next = [&]() -> bool {
    const size_t index = sent % texts.size();
    auto id = client.SendBatch({texts[index]}, limit);
    if (!id.ok()) {
      std::fprintf(stderr, "client: %s\n", id.status().ToString().c_str());
      return false;
    }
    inflight.emplace(*id, InFlight{index, clock.ElapsedMicros()});
    ++sent;
    return true;
  };

  for (size_t i = 0; i < std::min(pipeline, requests); ++i) {
    if (!send_next()) {
      out.errors = requests;
      return out;
    }
  }
  while (done < requests) {
    auto frame = client.Receive();
    if (!frame.ok()) {
      std::fprintf(stderr, "client: %s\n",
                   frame.status().ToString().c_str());
      out.errors += requests - done;
      return out;
    }
    const double now_us = clock.ElapsedMicros();
    auto it = inflight.find(frame->request_id);
    if (it == inflight.end() ||
        frame->type != net::FrameType::kBatchResult) {
      ++out.errors;
      if (it != inflight.end()) inflight.erase(it);
    } else {
      out.latencies_us.push_back(now_us - it->second.sent_us);
      net::WireResult result;
      if (!net::DecodeResult(frame->payload, &result).ok() ||
          result.result != expected[it->second.query_index]) {
        ++out.mismatches;
      }
      inflight.erase(it);
    }
    ++done;
    // Replenish on EVERY consumed response — error frames included —
    // or the pipeline drains to zero outstanding requests and the
    // next Receive() blocks forever.
    if (sent < requests && !send_next()) {
      out.errors += requests - done;
      return out;
    }
  }
  return out;
}

double Percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0;
  const size_t index = std::min(
      sorted_us.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_us.size())));
  return sorted_us[index];
}

}  // namespace

int main(int argc, char** argv) {
  RejectUnknownFlags(argc, argv,
                     {"--json=", "--clients=", "--pipeline=", "--queries=",
                      "--requests=", "--limit=", "--threads=", "--connect=",
                      "--gen=", "--quiet"});
  const auto json_path = JsonFlag(argc, argv);
  const auto client_sweep = SweepFlag(argc, argv, "--clients=", "1,2,4");
  const size_t pipeline = SizeFlag(argc, argv, "--pipeline=", 8);
  const size_t num_queries = SizeFlag(argc, argv, "--queries=", 32);
  const size_t requests = SizeFlag(argc, argv, "--requests=", 256);
  const uint64_t limit = SizeFlag(argc, argv, "--limit=", 64);
  const size_t threads = SizeFlag(argc, argv, "--threads=", 4);
  std::string connect, gen_spec;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--connect=", 10) == 0) connect = argv[i] + 10;
    if (std::strncmp(argv[i], "--gen=", 6) == 0) gen_spec = argv[i] + 6;
    if (std::strcmp(argv[i], "--quiet") == 0) {
      SetLogLevel(LogLevel::kError);
    }
  }
  if (pipeline == 0 || num_queries == 0 || requests == 0 || threads == 0 ||
      threads > 1024) {
    std::fprintf(stderr, "--pipeline/--queries/--requests must be > 0, "
                         "--threads= in 1..1024\n");
    return 2;
  }

  // Workload graph: in --connect mode this MUST regenerate the exact
  // graph the external server was started with — --gen= goes through
  // the same deterministic spec generator `gteactl serve --gen=` uses,
  // so the local differential reference answers over the served graph.
  DataGraph g = [&] {
    if (!gen_spec.empty()) {
      auto generated = workload::GenerateGraphFromSpec(gen_spec);
      if (!generated.ok()) {
        std::fprintf(stderr, "--gen=%s: %s\n", gen_spec.c_str(),
                     generated.status().ToString().c_str());
        std::exit(2);
      }
      return generated.TakeValue();
    }
    RandomDagOptions go;
    go.num_nodes = static_cast<size_t>(1000000 * BenchScale());
    if (go.num_nodes < 2000) go.num_nodes = 2000;
    go.avg_degree = 2.5;
    go.num_labels = 24;
    go.locality = 0.05;
    go.seed = 7;
    return RandomDag(go);
  }();

  std::vector<Gtpq> queries;
  for (uint64_t seed = 1;
       queries.size() < num_queries && seed < 40 * num_queries; ++seed) {
    QueryGenOptions qo;
    qo.num_nodes = 5 + seed % 3;
    qo.pc_probability = 0.2;
    qo.output_fraction = 0.6;
    qo.seed = seed * 17 + 3;
    auto q = GenerateRandomQueryWithRetry(g, qo);
    if (q.has_value()) queries.push_back(std::move(*q));
  }
  if (queries.empty()) {
    std::fprintf(stderr, "query generator starved\n");
    return 1;
  }
  const DataGraph& graph = g;
  std::vector<std::string> texts;
  for (const Gtpq& q : queries) {
    texts.push_back(q.ToString(graph.attr_names()));
  }

  // Independent in-process reference over the same workload — the
  // differential baseline every wire answer is checked against.
  QueryServerOptions ref_options;
  ref_options.num_threads = threads;
  ref_options.engine_spec = kEngineSpec;
  GteaOptions ref_eval;
  ref_eval.result_limit = static_cast<size_t>(limit);
  QueryServer reference(g, ref_options);
  const std::vector<QueryResult> expected =
      reference.EvaluateBatch(queries, nullptr, ref_eval);

  // Server: self-hosted unless --connect= points elsewhere.
  std::unique_ptr<net::NetServer> hosted;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  if (connect.empty()) {
    net::NetServerOptions so;
    so.runtime.num_threads = threads;
    so.runtime.engine_spec = kEngineSpec;
    hosted = std::make_unique<net::NetServer>(g, so);
    const Status started = hosted->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "server: %s\n", started.ToString().c_str());
      return 1;
    }
    port = hosted->port();
  } else if (!net::ParseHostPort(connect, &host, &port)) {
    std::fprintf(stderr, "malformed --connect= value '%s' (want "
                         "host:port)\n",
                 connect.c_str());
    return 2;
  }

  std::printf("Network serving throughput: %zu-node graph, %zu-query "
              "pool, pipeline %zu, %zu requests/client — %s:%u\n",
              g.NumNodes(), queries.size(), pipeline, requests,
              host.c_str(), port);
  std::printf("%8s %10s %12s %10s %10s %10s\n", "clients", "requests",
              "qps", "p50 ms", "p99 ms", "wall ms");

  JsonReport report("net_throughput");
  report.AddMeta("nodes", static_cast<uint64_t>(g.NumNodes()));
  report.AddMeta("pool_queries", static_cast<uint64_t>(queries.size()));
  report.AddMeta("pipeline", static_cast<uint64_t>(pipeline));
  report.AddMeta("result_limit", limit);

  uint64_t total_requests = 0, total_mismatches = 0, total_errors = 0;
  for (const size_t clients : client_sweep) {
    std::vector<ClientStats> stats(clients);
    Timer wall;
    {
      std::vector<std::thread> workers;
      for (size_t c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
          stats[c] = RunClient(host, port, texts, expected, requests,
                               pipeline, limit);
        });
      }
      for (std::thread& worker : workers) worker.join();
    }
    const double wall_ms = wall.ElapsedMillis();

    std::vector<double> latencies;
    uint64_t mismatches = 0, errors = 0;
    for (const ClientStats& s : stats) {
      latencies.insert(latencies.end(), s.latencies_us.begin(),
                       s.latencies_us.end());
      mismatches += s.mismatches;
      errors += s.errors;
    }
    std::sort(latencies.begin(), latencies.end());
    const uint64_t answered = latencies.size();
    const double qps = wall_ms > 0 ? 1000.0 * answered / wall_ms : 0;
    const double p50 = Percentile(latencies, 0.50) / 1000.0;
    const double p99 = Percentile(latencies, 0.99) / 1000.0;
    std::printf("%8zu %10llu %12.0f %10.2f %10.2f %10.1f%s\n", clients,
                static_cast<unsigned long long>(answered), qps, p50, p99,
                wall_ms,
                mismatches + errors > 0 ? "  [MISMATCHES]" : "");
    report.AddRow()
        .Add("clients", static_cast<uint64_t>(clients))
        .Add("requests", answered)
        .Add("queries_per_sec", qps)
        .Add("p50_ms", p50)
        .Add("p99_ms", p99)
        .Add("wall_ms", wall_ms)
        .Add("mismatches", mismatches + errors);
    total_requests += answered;
    total_mismatches += mismatches;
    total_errors += errors;
  }

  // The server runtime and this report must agree: a self-hosted
  // server serves nobody else, so its query count is exactly the
  // requests this process pushed.
  if (hosted != nullptr) {
    const ServingStats stats = hosted->runtime().serving_stats();
    std::printf("server stats: %llu queries (busy %.1f ms)\n",
                static_cast<unsigned long long>(stats.queries),
                stats.busy_ms);
    if (stats.queries != total_requests) {
      std::fprintf(stderr,
                   "query count mismatch: server saw %llu queries, "
                   "clients sent %llu\n",
                   static_cast<unsigned long long>(stats.queries),
                   static_cast<unsigned long long>(total_requests));
      return 1;
    }
  }

  if (total_mismatches + total_errors > 0) {
    std::fprintf(stderr,
                 "%llu mismatching / %llu failed responses out of %llu\n",
                 static_cast<unsigned long long>(total_mismatches),
                 static_cast<unsigned long long>(total_errors),
                 static_cast<unsigned long long>(total_requests));
    return 1;
  }
  std::printf("differential check: %llu wire responses matched the "
              "in-process QueryServer\n",
              static_cast<unsigned long long>(total_requests));
  if (json_path.has_value() && !report.WriteTo(*json_path)) return 1;
  return 0;
}

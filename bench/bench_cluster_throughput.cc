// Sharded-cluster serving throughput: partitions the workload graph
// into S shards, hosts S in-process shard servers plus a gtpq-wire
// router in front of them, and drives the ROUTER with N pipelining
// client threads — so every reachability probe a query needs crosses
// the wire to the owning shard. Reports qps, p50/p99, PROBE frames per
// query and wire bytes per query per (shards, clients, pipeline)
// configuration and verifies every routed answer differentially against
// a single in-process QueryServer over the unpartitioned graph. Wire
// bytes count every byte the in-process servers received and sent: the
// shards' PROBE traffic plus the client<->router queries. Both are 0
// under --connect=, whose servers run in another process.
//
//   --shards=1,3               shard-count sweep (self-hosted mode)
//   --clients=1,2              client-thread sweep
//   --pipeline=4               pipelining-depth sweep
//   --queries=8                distinct random queries in the pool
//   --requests=16              requests per client per configuration
//   --limit=64                 per-query result cap sent on the wire
//   --threads=2                pool threads per hosted server
//   --inner=interval           per-shard index spec
//   --gen=digraph:300,7,3      deterministic workload graph spec
//   --connect=host:port        drive an external `gteactl route`
//                              instead (the graph is rebuilt locally
//                              from --gen=, which must match; rows are
//                              labeled with the first --shards= value)
//   --json=<path>              machine-readable rows (CI perf tracking)
//   --quiet                    suppress log output below error level
//
// Defaults are deliberately small: unlike bench_net_throughput, every
// reachability probe inside a routed query is a loopback RTT to a
// shard, so per-query latency is dominated by probe fan-out.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "bench/harness.h"
#include "cluster/partition.h"
#include "common/logging.h"
#include "common/timer.h"
#include "graph/graph_io.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "query/query_generator.h"
#include "runtime/query_server.h"
#include "workload/graph_gen_spec.h"

using namespace gtpq;
using namespace gtpq::bench;

namespace {

struct ClientStats {
  std::vector<double> latencies_us;
  uint64_t mismatches = 0;
  uint64_t errors = 0;
};

/// One client connection driving `requests` pipelined queries against
/// the router. Mirrors bench_net_throughput's client loop.
ClientStats RunClient(const std::string& host, uint16_t port,
                      const std::vector<std::string>& texts,
                      const std::vector<QueryResult>& expected,
                      size_t requests, size_t pipeline, uint64_t limit) {
  ClientStats out;
  net::NetClient client;
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
    auto id = client.SendQuery(texts[index], limit);
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
        frame->type != net::FrameType::kResult) {
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
    if (sent < requests && !send_next()) {
      out.errors += requests - done;
      return out;
    }
  }
  return out;
}

/// PROBE frames the hosted shards answered, and bytes every in-process
/// server moved, so far.
struct WireTotals {
  uint64_t probe_frames = 0;
  uint64_t bytes = 0;
};

WireTotals ReadWireTotals(
    const std::vector<std::unique_ptr<net::NetServer>>& shards) {
  WireTotals totals;
  for (const auto& shard : shards) {
    totals.probe_frames += shard->counters().probes_served;
  }
  obs::Registry& reg = obs::Registry::Global();
  totals.bytes = reg.GetCounter("gtpq_net_bytes_received_total")->Value() +
                 reg.GetCounter("gtpq_net_bytes_sent_total")->Value();
  return totals;
}

double Percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0;
  const size_t index = std::min(
      sorted_us.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_us.size())));
  return sorted_us[index];
}

/// A fully self-hosted cluster: shard servers plus a router server
/// whose engine speaks `cluster:` to them. Holds the shard graphs
/// alive for the servers that reference them.
struct HostedCluster {
  std::vector<DataGraph> shard_graphs;
  std::vector<std::unique_ptr<net::NetServer>> shard_servers;
  std::unique_ptr<net::NetServer> router;
};

bool BringUp(const DataGraph& g, size_t shards, const std::string& inner,
             size_t threads, const std::string& dir, HostedCluster* out) {
  cluster::BuildPartitionOptions options;
  options.plan.num_shards = shards;
  options.inner_spec = inner;
  auto built = cluster::BuildPartition(g, options, dir);
  if (!built.ok()) {
    std::fprintf(stderr, "partition: %s\n",
                 built.status().ToString().c_str());
    return false;
  }
  const size_t actual = built->map.num_shards();
  out->shard_graphs.reserve(actual);
  std::string endpoints;
  for (size_t s = 0; s < actual; ++s) {
    auto local = LoadDataGraphFromFile(built->graph_paths[s]);
    if (!local.ok()) {
      std::fprintf(stderr, "shard %zu: %s\n", s,
                   local.status().ToString().c_str());
      return false;
    }
    out->shard_graphs.push_back(local.TakeValue());
    net::NetServerOptions so;
    so.runtime.num_threads = threads;
    so.runtime.engine_spec = "gtea:file:" + built->index_paths[s];
    out->shard_servers.push_back(std::make_unique<net::NetServer>(
        out->shard_graphs[s], so));
    const Status started = out->shard_servers[s]->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "shard %zu: %s\n", s,
                   started.ToString().c_str());
      return false;
    }
    if (!endpoints.empty()) endpoints += ',';
    endpoints += "127.0.0.1:" +
                 std::to_string(out->shard_servers[s]->port());
  }

  net::NetServerOptions ro;
  ro.runtime.num_threads = threads;
  ro.runtime.engine_spec =
      "gtea:cluster:" + built->map_path + "@" + endpoints;
  out->router = std::make_unique<net::NetServer>(g, ro);
  const Status started = out->router->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "router: %s\n", started.ToString().c_str());
    return false;
  }
  // The factory falls back to the default oracle when the cluster spec
  // cannot connect; a bench silently measuring that fallback would
  // report single-node numbers as cluster numbers.
  net::NetClient probe;
  if (!net::ConnectWithRetry(&probe, "127.0.0.1", out->router->port())
           .ok()) {
    std::fprintf(stderr, "router: cannot connect for engine check\n");
    return false;
  }
  auto stats = probe.Stats();
  if (!stats.ok() ||
      stats->engine.find("cluster:") == std::string::npos) {
    std::fprintf(stderr, "router engine is '%s', not a cluster engine\n",
                 stats.ok() ? stats->engine.c_str() : "<unreachable>");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto json_path = JsonFlag(argc, argv);
  const auto shard_sweep = SizeListFlag(argc, argv, "--shards=", "1,3");
  const auto client_sweep = SizeListFlag(argc, argv, "--clients=", "1,2");
  const auto pipeline_sweep =
      SizeListFlag(argc, argv, "--pipeline=", "4");
  const size_t num_queries = SizeFlag(argc, argv, "--queries=", 8);
  const size_t requests = SizeFlag(argc, argv, "--requests=", 16);
  const uint64_t limit = SizeFlag(argc, argv, "--limit=", 64);
  const size_t threads = SizeFlag(argc, argv, "--threads=", 2);
  const auto inner =
      SplitFlag(argc, argv, "--inner=", "interval").front();
  std::string connect, gen_spec;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--connect=", 10) == 0) connect = argv[i] + 10;
    if (std::strncmp(argv[i], "--gen=", 6) == 0) gen_spec = argv[i] + 6;
    // Router wire-failure warnings (expected during teardown races)
    // otherwise interleave with the result table.
    if (std::strcmp(argv[i], "--quiet") == 0) {
      SetLogLevel(LogLevel::kError);
    }
  }
  if (gen_spec.empty()) {
    // Deterministic default sized by the global scale knob; the graph
    // stays modest because every routed reachability probe is an RTT.
    size_t nodes = static_cast<size_t>(15000 * BenchScale());
    if (nodes < 300) nodes = 300;
    gen_spec = "digraph:" + std::to_string(nodes) + ",7,3";
  }
  for (size_t value : shard_sweep) {
    if (value == 0) {
      std::fprintf(stderr, "--shards entries must be > 0\n");
      return 2;
    }
  }
  if (shard_sweep.empty() || client_sweep.empty() ||
      pipeline_sweep.empty() || num_queries == 0 || requests == 0) {
    std::fprintf(stderr,
                 "--shards/--clients/--pipeline/--queries/--requests "
                 "must be non-empty\n");
    return 2;
  }

  auto generated = workload::GenerateGraphFromSpec(gen_spec);
  if (!generated.ok()) {
    std::fprintf(stderr, "--gen=%s: %s\n", gen_spec.c_str(),
                 generated.status().ToString().c_str());
    return 2;
  }
  const DataGraph g = generated.TakeValue();

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
  std::vector<std::string> texts;
  for (const Gtpq& q : queries) {
    texts.push_back(q.ToString(g.attr_names()));
  }

  // The single in-process QueryServer over the UNPARTITIONED graph is
  // the differential baseline: a routed cluster of any shard count must
  // answer byte-identically.
  QueryServerOptions ref_options;
  ref_options.num_threads = threads;
  ref_options.engine_spec = "gtea";
  GteaOptions ref_eval;
  ref_eval.result_limit = static_cast<size_t>(limit);
  QueryServer reference(g, ref_options);
  const std::vector<QueryResult> expected =
      reference.EvaluateBatch(queries, nullptr, ref_eval);

  std::printf("Cluster serving throughput: %s (%zu nodes), %zu-query "
              "pool, %zu requests/client\n",
              gen_spec.c_str(), g.NumNodes(), queries.size(), requests);
  std::printf("%8s %8s %10s %10s %12s %12s %12s %10s %10s %10s\n",
              "shards", "clients", "pipeline", "requests", "qps",
              "frames/q", "bytes/q", "p50 ms", "p99 ms", "wall ms");

  JsonReport report("cluster_throughput");
  report.AddMeta("nodes", static_cast<uint64_t>(g.NumNodes()));
  report.AddMeta("pool_queries", static_cast<uint64_t>(queries.size()));
  report.AddMeta("result_limit", limit);

  uint64_t total_requests = 0, total_bad = 0;
  const std::string tmp_root =
      (std::filesystem::temp_directory_path() /
       ("gtpq_bench_cluster_" + std::to_string(getpid())))
          .string();

  const std::vector<size_t> hosted_shards =
      connect.empty() ? shard_sweep
                      : std::vector<size_t>{shard_sweep.front()};
  for (size_t shards : hosted_shards) {
    HostedCluster hosted;
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    if (connect.empty()) {
      const std::string dir = tmp_root + "/s" + std::to_string(shards);
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      if (ec || !BringUp(g, shards, inner, threads, dir, &hosted)) {
        std::filesystem::remove_all(tmp_root, ec);
        return 1;
      }
      port = hosted.router->port();
    } else if (!net::ParseHostPort(connect, &host, &port)) {
      std::fprintf(stderr, "malformed --connect= value '%s' (want "
                           "host:port)\n",
                   connect.c_str());
      return 2;
    }

    for (size_t clients : client_sweep) {
      for (size_t pipeline : pipeline_sweep) {
        if (clients == 0 || pipeline == 0) {
          std::fprintf(stderr, "--clients/--pipeline must be > 0\n");
          return 2;
        }
        std::vector<ClientStats> stats(clients);
        const WireTotals wire_before = ReadWireTotals(hosted.shard_servers);
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
        const WireTotals wire_after = ReadWireTotals(hosted.shard_servers);

        std::vector<double> latencies;
        uint64_t bad = 0;
        for (const ClientStats& s : stats) {
          latencies.insert(latencies.end(), s.latencies_us.begin(),
                           s.latencies_us.end());
          bad += s.mismatches + s.errors;
        }
        std::sort(latencies.begin(), latencies.end());
        const uint64_t answered = latencies.size();
        const double qps = wall_ms > 0 ? 1000.0 * answered / wall_ms : 0;
        const double p50 = Percentile(latencies, 0.50) / 1000.0;
        const double p99 = Percentile(latencies, 0.99) / 1000.0;
        const double per_query = answered > 0 ? 1.0 / answered : 0;
        const double frames_per_query =
            per_query * static_cast<double>(wire_after.probe_frames -
                                            wire_before.probe_frames);
        const double bytes_per_query =
            per_query *
            static_cast<double>(wire_after.bytes - wire_before.bytes);
        std::printf("%8zu %8zu %10zu %10llu %12.0f %12.1f %12.0f %10.2f "
                    "%10.2f %10.1f%s\n",
                    shards, clients, pipeline,
                    static_cast<unsigned long long>(answered), qps,
                    frames_per_query, bytes_per_query, p50, p99, wall_ms,
                    bad > 0 ? "  [MISMATCHES]" : "");
        report.AddRow()
            .Add("shards", static_cast<uint64_t>(shards))
            .Add("clients", static_cast<uint64_t>(clients))
            .Add("pipeline", static_cast<uint64_t>(pipeline))
            .Add("requests", answered)
            .Add("queries_per_sec", qps)
            .Add("probe_frames_per_query", frames_per_query)
            .Add("wire_bytes_per_query", bytes_per_query)
            .Add("p50_ms", p50)
            .Add("p99_ms", p99)
            .Add("wall_ms", wall_ms)
            .Add("mismatches", bad);
        total_requests += answered;
        total_bad += bad;
      }
    }
  }
  if (connect.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(tmp_root, ec);
  }

  if (total_bad > 0) {
    std::fprintf(stderr,
                 "%llu mismatching/failed responses out of %llu\n",
                 static_cast<unsigned long long>(total_bad),
                 static_cast<unsigned long long>(total_requests));
    return 1;
  }
  std::printf("differential check: %llu routed responses matched the "
              "single in-process QueryServer\n",
              static_cast<unsigned long long>(total_requests));
  if (json_path.has_value() && !report.WriteTo(*json_path)) return 1;
  return 0;
}

// Live-update serving: an update stream interleaved with GTPQ query
// batches against one QueryServer. Each round applies one UpdateBatch
// (mixed edge/vertex insertions and deletions, delete share set by
// --del-ratio) through the epoch-snapshot path — incremental delta
// maintenance for gtea engines, no index rebuild — then pushes the
// query batch through the new snapshot. Reported per configuration:
// mean update install latency, query throughput under updates, and the
// final epoch/pending-op/compaction counters.
//
//   --threads=1,4              pool sizes to sweep (default)
//   --engine=gtea              engine specs to sweep
//                              (comma-separated, e.g. gtea,naive)
//   --queries=64               queries per batch
//   --rounds=8                 update rounds per configuration
//   --ops=64                   operations per update batch
//   --del-ratio=0.3            share of delete ops in the stream
//   --limit=512                per-query result cap (0 = unlimited)
//   --json=<path>              also emit machine-readable rows (CI)
//   GTPQ_BENCH_SCALE           scales the graph (default 10k nodes at 0.02)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/timer.h"
#include "dynamic/graph_delta.h"
#include "dynamic/stream_gen.h"
#include "graph/generators.h"
#include "query/query_generator.h"
#include "runtime/query_server.h"

using namespace gtpq;
using namespace gtpq::bench;

int main(int argc, char** argv) {
  const double scale = BenchScale();
  const auto json_path = JsonFlag(argc, argv);
  const auto thread_sweep = ThreadSweepFlag(argc, argv, "1,4");
  const auto engine_specs = SplitFlag(argc, argv, "--engine=", "gtea");
  const size_t num_queries = SizeFlag(argc, argv, "--queries=", 64);
  const size_t rounds = SizeFlag(argc, argv, "--rounds=", 8);
  const size_t ops = SizeFlag(argc, argv, "--ops=", 64);
  const size_t result_limit = SizeFlag(argc, argv, "--limit=", 512);
  const double del_ratio = DoubleFlag(argc, argv, "--del-ratio=", 0.3);
  if (thread_sweep.empty() || engine_specs.empty() || num_queries == 0 ||
      rounds == 0) {
    std::fprintf(stderr, "--threads=/--engine= need values; --queries= "
                         "and --rounds= must be positive\n");
    return 2;
  }

  RandomDagOptions go;
  go.num_nodes = static_cast<size_t>(500000 * scale);
  if (go.num_nodes < 2000) go.num_nodes = 2000;
  go.avg_degree = 2.5;
  go.num_labels = 24;
  go.locality = 0.05;
  go.seed = 11;
  DataGraph g = RandomDag(go);

  std::vector<Gtpq> queries;
  for (uint64_t seed = 1;
       queries.size() < num_queries && seed < 40 * num_queries; ++seed) {
    QueryGenOptions qo;
    qo.num_nodes = 4 + seed % 3;
    qo.pc_probability = 0.2;
    qo.output_fraction = 0.6;
    qo.seed = seed * 13 + 5;
    auto q = GenerateRandomQueryWithRetry(g, qo);
    if (q.has_value()) queries.push_back(std::move(*q));
  }
  UpdateStreamOptions stream_options;
  stream_options.rounds = rounds;
  stream_options.ops_per_round = ops;
  stream_options.del_ratio = del_ratio;
  stream_options.seed = 23;
  const std::vector<UpdateBatch> stream =
      GenerateUpdateStream(g, stream_options);

  std::printf("Update-stream serving: %zu-node random DAG, %zu queries "
              "per batch, %zu rounds x %zu ops (del ratio %.2f, "
              "GTPQ_BENCH_SCALE=%g)\n",
              g.NumNodes(), queries.size(), rounds, ops, del_ratio,
              scale);
  std::printf("%-28s %8s %12s %12s %8s\n", "Engine", "threads",
              "update ms", "queries/s", "epoch");

  JsonReport report("update_stream");
  report.AddMeta("scale", scale);
  report.AddMeta("nodes", static_cast<uint64_t>(g.NumNodes()));
  report.AddMeta("queries", static_cast<uint64_t>(queries.size()));
  report.AddMeta("rounds", static_cast<uint64_t>(rounds));
  report.AddMeta("ops_per_round", static_cast<uint64_t>(ops));
  report.AddMeta("del_ratio", del_ratio);

  for (const std::string& spec : engine_specs) {
    for (size_t threads : thread_sweep) {
      QueryServerOptions options;
      options.num_threads = threads;
      options.engine_spec = spec;
      options.eval_options.result_limit = result_limit;
      QueryServer server(g, options);
      server.EvaluateBatch(queries);  // warmup on epoch 0

      double update_ms = 0, query_ms = 0;
      size_t served = 0;
      for (const UpdateBatch& batch : stream) {
        Timer ut;
        const Status applied = server.ApplyUpdates(batch);
        update_ms += ut.ElapsedMillis();
        if (!applied.ok()) {
          std::fprintf(stderr, "update rejected: %s\n",
                       applied.ToString().c_str());
          return 1;
        }
        Timer qt;
        server.EvaluateBatch(queries);
        query_ms += qt.ElapsedMillis();
        served += queries.size();
      }
      const double mean_update_ms = update_ms / rounds;
      const double qps =
          query_ms > 0 ? 1000.0 * static_cast<double>(served) / query_ms
                       : 0;
      std::printf("%-28s %8zu %12.2f %12.0f %8llu\n",
                  std::string(server.engine_name()).c_str(), threads,
                  mean_update_ms, qps,
                  static_cast<unsigned long long>(server.epoch()));
      report.AddRow()
          .Add("engine", std::string(server.engine_name()))
          .Add("threads", static_cast<uint64_t>(threads))
          .Add("mean_update_ms", mean_update_ms)
          .Add("queries_per_sec", qps)
          .Add("epoch", server.epoch());
    }
  }
  std::printf("\nUpdates install new epoch snapshots; queries in flight "
              "finish on the old epoch (readers never block writers).\n");
  if (json_path.has_value() && !report.WriteTo(*json_path)) return 1;
  return 0;
}

// Concurrent serving throughput: queries/sec for one GTPQ batch pushed
// through QueryServer at increasing pool sizes, against a shared
// immutable oracle. The random-DAG workload mirrors the paper's arXiv
// setup (random label-anchored queries); on a multi-core host the
// speedup column should climb toward the core count (>= 3x at 8
// threads is the acceptance bar), since workers share nothing mutable.
//
// Queries are served top-k (result_limit = 512): unbounded enumeration
// would measure result materialization, not serving; random GTPQs can
// have answers in the tens of millions of tuples.
//
//   --threads=1,2,4,8,16       pool sizes to sweep (default)
//   --engine=gtea              engine specs to sweep per pool size
//                              (comma-separated, e.g. gtea,naive)
//   --queries=256              batch size
//   --limit=512                per-query result cap (0 = unlimited)
//   --json=<path>              also emit machine-readable rows (CI)
//   GTPQ_BENCH_SCALE           scales the graph (default 20k nodes at 0.02)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/timer.h"
#include "graph/generators.h"
#include "query/query_generator.h"
#include "runtime/query_server.h"

using namespace gtpq;
using namespace gtpq::bench;

int main(int argc, char** argv) {
  const double scale = BenchScale();
  const auto json_path = JsonFlag(argc, argv);
  const auto thread_sweep = ThreadSweepFlag(argc, argv, "1,2,4,8,16");
  const auto engine_specs = SplitFlag(argc, argv, "--engine=", "gtea");
  const size_t num_queries = SizeFlag(argc, argv, "--queries=", 256);
  const size_t result_limit = SizeFlag(argc, argv, "--limit=", 512);
  if (thread_sweep.empty() || engine_specs.empty() || num_queries == 0) {
    std::fprintf(stderr,
                 "--threads= and --engine= need comma-separated values; "
                 "--queries= must be positive\n");
    return 2;
  }

  RandomDagOptions go;
  go.num_nodes = static_cast<size_t>(1000000 * scale);
  if (go.num_nodes < 2000) go.num_nodes = 2000;
  go.avg_degree = 2.5;
  go.num_labels = 24;
  go.locality = 0.05;
  go.seed = 7;
  DataGraph g = RandomDag(go);

  std::vector<Gtpq> queries;
  for (uint64_t seed = 1; queries.size() < num_queries &&
                          seed < 40 * num_queries;
       ++seed) {
    QueryGenOptions qo;
    qo.num_nodes = 5 + seed % 3;
    qo.pc_probability = 0.2;
    qo.output_fraction = 0.6;
    qo.seed = seed * 17 + 3;
    auto q = GenerateRandomQueryWithRetry(g, qo);
    if (q.has_value()) queries.push_back(std::move(*q));
  }

  std::printf("Concurrent serving throughput: %zu-node random DAG, "
              "%zu queries per batch (GTPQ_BENCH_SCALE=%g)\n",
              g.NumNodes(), queries.size(), scale);
  std::printf("%-28s %8s %12s %12s %10s\n", "Engine", "threads",
              "batch ms", "queries/s", "speedup");

  const int reps = BenchReps();
  JsonReport report("concurrent_throughput");
  report.AddMeta("scale", scale);
  report.AddMeta("nodes", static_cast<uint64_t>(g.NumNodes()));
  report.AddMeta("queries", static_cast<uint64_t>(queries.size()));
  report.AddMeta("result_limit", static_cast<uint64_t>(result_limit));
  for (const std::string& spec : engine_specs) {
    double baseline_qps = 0;
    for (size_t threads : thread_sweep) {
      QueryServerOptions options;
      options.num_threads = threads;
      options.engine_spec = spec;
      options.eval_options.result_limit = result_limit;
      QueryServer server(g, options);
      server.EvaluateBatch(queries);  // warmup
      const double ms = MinTimeMs(
          [&] { server.EvaluateBatch(queries); }, reps);
      const double qps = ms > 0 ? 1000.0 * queries.size() / ms : 0;
      if (baseline_qps == 0) baseline_qps = qps;
      const double speedup = baseline_qps > 0 ? qps / baseline_qps : 0.0;
      std::printf("%-28s %8zu %12.1f %12.0f %9.2fx\n",
                  std::string(server.engine_name()).c_str(), threads, ms,
                  qps, speedup);
      report.AddRow()
          .Add("engine", std::string(server.engine_name()))
          .Add("threads", static_cast<uint64_t>(threads))
          .Add("batch_ms", ms)
          .Add("queries_per_sec", qps)
          .Add("speedup", speedup);
    }
  }
  std::printf("\nSpeedup is relative to the first pool size of each "
              "engine row; single-core hosts report ~1x throughout.\n");
  if (json_path.has_value() && !report.WriteTo(*json_path)) return 1;
  return 0;
}

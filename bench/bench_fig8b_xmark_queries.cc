// Reproduces Fig 8(b): per-query processing time on the smallest XMark
// dataset for Q1/Q2/Q3 across the five engines.
//
//   --json=<path>       machine-readable rows for the CI perf-diff
#include "bench/harness.h"
#include "common/rng.h"
#include "workload/xmark.h"

using namespace gtpq;
using namespace gtpq::bench;

int main(int argc, char** argv) {
  RejectUnknownFlags(argc, argv, {"--json="});
  const double s = BenchScale();
  const int reps = BenchReps();
  const auto json_path = JsonFlag(argc, argv);
  workload::XmarkOptions o;
  o.scale = 0.5 * s;
  DataGraph g = workload::GenerateXmark(o);
  EngineBench engines(g);
  JsonReport report("fig8b_xmark_queries");
  report.AddMeta("scale", s);
  report.AddMeta("nodes", static_cast<uint64_t>(g.NumNodes()));
  report.AddMeta("edges", static_cast<uint64_t>(g.NumEdges()));
  std::printf("Fig 8(b): query time (ms) on XMark scale 0.5 "
              "(GTPQ_BENCH_SCALE=%g)\n", s);
  std::printf("%-8s %12s %12s %12s %12s %12s\n", "Query", "GTEA",
              "TwigStackD", "HGJoin+", "TwigStack", "Twig2Stack");
  const int kQueries = 5;
  Rng rng(13);
  for (int variant = 1; variant <= 3; ++variant) {
    double t_gtea = 0, t_tsd = 0, t_hg = 0, t_ts = 0, t_t2s = 0;
    for (int i = 0; i < kQueries; ++i) {
      int pg = static_cast<int>(rng.NextBounded(10));
      int ig = static_cast<int>(rng.NextBounded(10));
      int pg2 = static_cast<int>(rng.NextBounded(10));
      workload::XmarkQuery wq =
          variant == 1   ? workload::BuildXmarkQ1(g, pg)
          : variant == 2 ? workload::BuildXmarkQ2(g, pg, ig)
                         : workload::BuildXmarkQ3(g, pg, ig, pg2);
      auto cross = EngineBench::CrossIds(wq.query, wq.cross_node_names);
      t_gtea += MinTimeMs([&] { engines.RunGtea(wq.query); }, reps);
      t_tsd += MinTimeMs([&] { engines.RunTwigStackD(wq.query); }, reps);
      t_hg += MinTimeMs([&] { engines.RunHgJoinPlus(wq.query); }, reps);
      t_ts += MinTimeMs([&] { engines.RunTwigStack(wq.query, cross); },
                        reps);
      t_t2s += MinTimeMs(
          [&] { engines.RunTwig2Stack(wq.query, cross); }, reps);
    }
    std::printf("Q%-7d %12.2f %12.2f %12.2f %12.2f %12.2f\n", variant,
                t_gtea / kQueries, t_tsd / kQueries, t_hg / kQueries,
                t_ts / kQueries, t_t2s / kQueries);
    const std::string qname = std::to_string(variant).insert(0, 1, 'Q');
    report.AddRow()
        .Add("query", qname)
        .Add("gtea_ms", t_gtea / kQueries)
        .Add("twigstackd_ms", t_tsd / kQueries)
        .Add("hgjoin_plus_ms", t_hg / kQueries)
        .Add("twigstack_ms", t_ts / kQueries)
        .Add("twig2stack_ms", t_t2s / kQueries);
  }
  std::printf("\nPaper shape: GTEA nearly flat across Q1..Q3; HGJoin+ "
              "most sensitive to query size.\n");
  if (json_path.has_value() && !report.WriteTo(*json_path)) return 1;
  return 0;
}

// Reproduces Fig 8(a): query processing time for Q1 on XMark while the
// data size grows, across GTEA, TwigStackD, HGJoin+, TwigStack and
// Twig2Stack.
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
  JsonReport report("fig8a_xmark_datasize");
  report.AddMeta("scale", s);
  std::printf("Fig 8(a): Q1 query time (ms) vs data size "
              "(GTPQ_BENCH_SCALE=%g)\n", s);
  std::printf("%-10s %12s %12s %12s %12s %12s\n", "Scale", "GTEA",
              "TwigStackD", "HGJoin+", "TwigStack", "Twig2Stack");
  for (double f : {0.5, 1.0, 1.5, 2.0, 4.0}) {
    workload::XmarkOptions o;
    o.scale = f * s;
    DataGraph g = workload::GenerateXmark(o);
    EngineBench engines(g);
    Rng rng(11);
    double t_gtea = 0, t_tsd = 0, t_hg = 0, t_ts = 0, t_t2s = 0;
    const int kQueries = 5;
    for (int i = 0; i < kQueries; ++i) {
      int pg = static_cast<int>(rng.NextBounded(10));
      auto wq = workload::BuildXmarkQ1(g, pg);
      auto cross = EngineBench::CrossIds(wq.query, wq.cross_node_names);
      t_gtea += MinTimeMs([&] { engines.RunGtea(wq.query); }, reps);
      t_tsd += MinTimeMs([&] { engines.RunTwigStackD(wq.query); }, reps);
      t_hg += MinTimeMs([&] { engines.RunHgJoinPlus(wq.query); }, reps);
      t_ts += MinTimeMs([&] { engines.RunTwigStack(wq.query, cross); },
                        reps);
      t_t2s += MinTimeMs(
          [&] { engines.RunTwig2Stack(wq.query, cross); }, reps);
    }
    std::printf("%-10g %12.2f %12.2f %12.2f %12.2f %12.2f\n", f,
                t_gtea / kQueries, t_tsd / kQueries, t_hg / kQueries,
                t_ts / kQueries, t_t2s / kQueries);
    // String-typed so the perf-diff keys rows on it (doubles are
    // treated as metrics, not identity).
    char scale_key[32];
    std::snprintf(scale_key, sizeof(scale_key), "%g", f);
    report.AddRow()
        .Add("data_scale", std::string(scale_key))
        .Add("gtea_ms", t_gtea / kQueries)
        .Add("twigstackd_ms", t_tsd / kQueries)
        .Add("hgjoin_plus_ms", t_hg / kQueries)
        .Add("twigstack_ms", t_ts / kQueries)
        .Add("twig2stack_ms", t_t2s / kQueries);
  }
  std::printf("\nPaper shape: GTEA fastest at every scale; gap widens "
              "with size; HGJoin+ slowest.\n");
  if (json_path.has_value() && !report.WriteTo(*json_path)) return 1;
  return 0;
}

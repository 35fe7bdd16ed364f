// Reproduces Table 1: statistics of the XMark datasets at scaling
// factors 0.5..4 (multiplied by GTPQ_BENCH_SCALE; the paper's absolute
// sizes correspond to GTPQ_BENCH_SCALE=1).
#include "bench/harness.h"
#include "common/string_util.h"
#include "workload/xmark.h"

int main(int argc, char** argv) {
  gtpq::bench::RejectUnknownFlags(argc, argv, {});
  const double s = gtpq::bench::BenchScale();
  std::printf("Table 1: Statistics of XMark datasets "
              "(GTPQ_BENCH_SCALE=%g)\n", s);
  std::printf("%-16s %14s %14s %14s\n", "Scaling factor", "Nodes",
              "Edges", "Edges/Node");
  for (double f : {0.5, 1.0, 1.5, 2.0, 4.0}) {
    gtpq::workload::XmarkOptions o;
    o.scale = f * s;
    gtpq::DataGraph g = gtpq::workload::GenerateXmark(o);
    std::printf("%-16g %14s %14s %14.2f\n", f,
                gtpq::FormatWithCommas(
                    static_cast<long long>(g.NumNodes()))
                    .c_str(),
                gtpq::FormatWithCommas(
                    static_cast<long long>(g.NumEdges()))
                    .c_str(),
                static_cast<double>(g.NumEdges()) /
                    static_cast<double>(g.NumNodes()));
  }
  std::printf("\nPaper reference (scale 1): 1.29M nodes, 1.54M edges "
              "(ratio 1.19)\n");
  return 0;
}

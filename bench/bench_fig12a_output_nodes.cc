// Reproduces Exp-1 / Fig 12(a): GTEA processing time on the Fig 11
// query while the output-node set varies (Table 3's Q4..Q8), plus the
// Table 5 result counts.
#include "bench/harness.h"
#include "workload/xmark.h"

using namespace gtpq;
using namespace gtpq::bench;

int main(int argc, char** argv) {
  RejectUnknownFlags(argc, argv, {});
  const double s = BenchScale();
  const int reps = BenchReps();
  workload::XmarkOptions o;
  o.scale = 4.0 * s;
  DataGraph g = workload::GenerateXmark(o);
  EngineBench engines(g);

  std::printf("Fig 12(a) / Tables 3+5: GTEA vs output-node sets "
              "(XMark scale 4, GTPQ_BENCH_SCALE=%g)\n", s);
  std::printf("%-6s %10s %12s %10s\n", "Query", "#outputs", "GTEA(ms)",
              "#results");
  for (int variant = 4; variant <= 8; ++variant) {
    auto wq = workload::BuildExp1Query(g, 3, 4, variant);
    if (!wq.ok()) {
      std::printf("Q%d: %s\n", variant, wq.status().ToString().c_str());
      continue;
    }
    QueryResult result;
    double ms = MinTimeMs(
        [&] { result = engines.RunGtea(wq->query); }, reps);
    std::printf("Q%-5d %10zu %12.2f %10zu\n", variant,
                wq->query.outputs().size(), ms, result.tuples.size());
  }
  std::printf("\nPaper shape: fewer output nodes -> smaller prime "
              "subtree -> generally less processing time.\n");
  return 0;
}

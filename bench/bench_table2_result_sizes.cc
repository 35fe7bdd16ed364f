// Reproduces Table 2: the average result sizes of queries Q1..Q3 on the
// XMark datasets, averaged over 10 random person/item group choices.
#include "bench/harness.h"
#include "common/rng.h"
#include "workload/xmark.h"

using namespace gtpq;
using namespace gtpq::bench;

int main(int argc, char** argv) {
  RejectUnknownFlags(argc, argv, {});
  const double s = BenchScale();
  std::printf("Table 2: average result sizes on XMark "
              "(GTPQ_BENCH_SCALE=%g)\n", s);
  std::printf("%-8s", "Query");
  for (double f : {0.5, 1.0, 1.5, 2.0, 4.0}) std::printf(" %10gx", f);
  std::printf("\n");

  std::vector<std::vector<double>> sizes(3);
  for (double f : {0.5, 1.0, 1.5, 2.0, 4.0}) {
    workload::XmarkOptions o;
    o.scale = f * s;
    DataGraph g = workload::GenerateXmark(o);
    GteaEngine gtea(g);
    Rng rng(7);
    for (int variant = 0; variant < 3; ++variant) {
      double total = 0;
      for (int rep = 0; rep < 10; ++rep) {
        int pg = static_cast<int>(rng.NextBounded(10));
        int ig = static_cast<int>(rng.NextBounded(10));
        int pg2 = static_cast<int>(rng.NextBounded(10));
        workload::XmarkQuery wq =
            variant == 0   ? workload::BuildXmarkQ1(g, pg)
            : variant == 1 ? workload::BuildXmarkQ2(g, pg, ig)
                           : workload::BuildXmarkQ3(g, pg, ig, pg2);
        total += static_cast<double>(gtea.Evaluate(wq.query).tuples.size());
      }
      sizes[static_cast<size_t>(variant)].push_back(total / 10.0);
    }
  }
  for (int variant = 0; variant < 3; ++variant) {
    std::printf("Q%-7d", variant + 1);
    for (double v : sizes[static_cast<size_t>(variant)]) {
      std::printf(" %11.1f", v);
    }
    std::printf("\n");
  }
  std::printf("\nPaper shape: sizes grow ~linearly with scale and drop "
              "by ~10x per added join (Q1 >> Q2 >> Q3)\n");
  return 0;
}

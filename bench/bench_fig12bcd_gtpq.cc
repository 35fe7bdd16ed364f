// Reproduces Exp-2 / Fig 12(b,c,d): GTPQs with disjunction and negation
// (Table 4) evaluated by GTEA natively and by the decompose-and-merge
// strategy on top of TwigStack and TwigStackD, plus the Table 5 result
// counts and the number of conjunctive queries each decomposition needs.
#include "bench/harness.h"
#include "baselines/decompose.h"
#include "workload/xmark.h"

using namespace gtpq;
using namespace gtpq::bench;

int main(int argc, char** argv) {
  RejectUnknownFlags(argc, argv, {});
  const double s = BenchScale();
  const int reps = BenchReps();
  workload::XmarkOptions o;
  o.scale = 1.0 * s;
  DataGraph g = workload::GenerateXmark(o);
  EngineBench engines(g);

  std::printf("Fig 12(b,c,d) / Tables 4+5: GTPQ processing "
              "(XMark, GTPQ_BENCH_SCALE=%g)\n", s);
  std::printf("%-10s %10s %12s %14s %14s %8s\n", "Query", "#results",
              "GTEA(ms)", "TwigStack(ms)", "TwigStackD(ms)", "#conj");
  for (const auto& name : workload::Exp2QueryNames()) {
    auto wq = workload::BuildExp2Query(g, 3, 4, name);
    if (!wq.ok()) {
      std::printf("%-10s %s\n", name.c_str(),
                  wq.status().ToString().c_str());
      continue;
    }
    QueryResult reference;
    double t_gtea = MinTimeMs(
        [&] { reference = engines.RunGtea(wq->query); }, reps);

    double t_ts = 0, t_tsd = 0;
    bool ok_ts = true, ok_tsd = true;
    t_ts = MinTimeMs(
        [&] {
          auto r = engines.RunDecomposed(wq->query, "twigstack");
          ok_ts = r.ok() && *r == reference;
        },
        reps);
    t_tsd = MinTimeMs(
        [&] {
          auto r = engines.RunDecomposed(wq->query, "twigstackd");
          ok_tsd = r.ok() && *r == reference;
        },
        reps);
    auto conj = CountDecomposedQueries(wq->query);
    std::printf("%-10s %10zu %12.2f %13.2f%s %13.2f%s %8zu\n",
                name.c_str(), reference.tuples.size(), t_gtea, t_ts,
                ok_ts ? " " : "!", t_tsd, ok_tsd ? " " : "!",
                conj.ok() ? *conj : 0);
  }
  std::printf("\n('!' marks an engine disagreeing with GTEA — expected "
              "never). Paper shape: GTEA several times to orders of "
              "magnitude faster than decompose-and-merge baselines.\n");
  return 0;
}

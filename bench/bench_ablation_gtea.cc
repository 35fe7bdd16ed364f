// Ablation benches for the Section 4 design choices:
//  * upward pruning on/off (second pruning round),
//  * contour-based vs pairwise maximal-matching-graph construction,
//  * skipping singleton candidate sets during upward pruning.
#include "bench/harness.h"
#include "query/query_generator.h"
#include "workload/arxiv.h"
#include "workload/xmark.h"

using namespace gtpq;
using namespace gtpq::bench;

namespace {

void RunCase(const char* tag, GteaEngine& gtea, const Gtpq& q,
             int reps) {
  GteaOptions base;
  GteaOptions no_up = base;
  no_up.upward_pruning = false;
  GteaOptions pairwise = base;
  pairwise.contour_matching_graph = false;
  GteaOptions skip = base;
  skip.skip_singleton_upward = true;

  double t_base = MinTimeMs([&] { gtea.Evaluate(q, base); }, reps);
  double t_noup = MinTimeMs([&] { gtea.Evaluate(q, no_up); }, reps);
  double t_pair = MinTimeMs([&] { gtea.Evaluate(q, pairwise); }, reps);
  double t_skip = MinTimeMs([&] { gtea.Evaluate(q, skip); }, reps);
  std::printf("%-24s %10.2f %12.2f %14.2f %14.2f\n", tag, t_base,
              t_noup, t_pair, t_skip);
  // One more full-pipeline run to attribute the time to the stages.
  gtea.Evaluate(q, base);
  const EngineStats& st = gtea.stats();
  // Short column labels, in Stage order.
  static constexpr const char* kLabels[kNumStages] = {
      "match", "down", "prime", "up", "mg", "enum"};
  std::printf("  stages(ms):");
  for (size_t s = 0; s < kNumStages; ++s) {
    std::printf(" %s %.2f |", kLabels[s], st.stage_ms[s]);
  }
  std::printf(" total %.2f\n", st.total_ms);
}

}  // namespace

int main() {
  const double s = BenchScale();
  const int reps = BenchReps();
  std::printf("GTEA ablations (ms; GTPQ_BENCH_SCALE=%g)\n", s);
  std::printf("%-24s %10s %12s %14s %14s\n", "Workload", "full",
              "no-upward", "pairwise-mg", "skip-singleton");

  {
    workload::XmarkOptions o;
    o.scale = 1.0 * s;
    DataGraph g = workload::GenerateXmark(o);
    GteaEngine gtea(g);
    auto q3 = workload::BuildXmarkQ3(g, 3, 4, 5);
    RunCase("xmark-q3", gtea, q3.query, reps);
    auto dis = workload::BuildExp2Query(g, 3, 4, "DIS_NEG3");
    if (dis.ok()) RunCase("xmark-dis_neg3", gtea, dis->query, reps);
  }
  {
    workload::ArxivOptions ao;
    DataGraph g = workload::GenerateArxiv(ao);
    GteaEngine gtea(g);
    int done = 0;
    for (uint64_t seed = 1; seed <= 64 && done < 2; ++seed) {
      QueryGenOptions qo;
      qo.num_nodes = 9;
      qo.output_fraction = 1.0;
      qo.seed = seed;
      auto q = GenerateRandomQuery(g, qo);
      if (!q.has_value()) continue;
      GteaOptions probe;
      probe.result_limit = 2000;
      size_t n = gtea.Evaluate(*q, probe).tuples.size();
      if (n < 2 || n > 1200) continue;
      char tag[32];
      std::snprintf(tag, sizeof(tag), "arxiv-size9-#%d", done);
      RunCase(tag, gtea, *q, reps);
      ++done;
    }
  }
  std::printf("\nExpected shape: upward pruning and contour-based "
              "matching-graph construction pay off; the singleton skip "
              "is a small win.\n");
  return 0;
}

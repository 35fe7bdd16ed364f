// Reproduces Fig 9 on the arXiv-like citation graph:
//  (a) result-size distribution of the generated query groups,
//  (b) query time, small-result group (2..50 results),
//  (c) query time, large-result group (200..1200 results),
//  (d) GTEA pruning time vs TwigStackD pre-filtering time.
//
//   --json=<path>       machine-readable rows for the CI perf-diff
#include <map>
#include <string>

#include "bench/harness.h"
#include "baselines/twigstackd.h"
#include "query/query_generator.h"
#include "workload/arxiv.h"

using namespace gtpq;
using namespace gtpq::bench;

namespace {

struct Group {
  size_t lo, hi;
  std::map<size_t, std::vector<Gtpq>> by_size;  // query size -> queries
};

}  // namespace

int main(int argc, char** argv) {
  const int reps = BenchReps();
  const auto json_path = JsonFlag(argc, argv);
  workload::ArxivOptions ao;
  DataGraph g = workload::GenerateArxiv(ao);
  std::printf("arXiv graph: %zu nodes, %zu edges, %zu labels\n",
              g.NumNodes(), g.NumEdges(), g.NumDistinctLabels());
  EngineBench engines(g);
  JsonReport report("fig9_arxiv");
  report.AddMeta("nodes", static_cast<uint64_t>(g.NumNodes()));
  report.AddMeta("edges", static_cast<uint64_t>(g.NumEdges()));

  Group small{2, 50, {}};
  Group large{200, 1200, {}};
  const std::vector<size_t> kSizes{5, 7, 9, 11, 13};
  const size_t kPerCell = 10;

  uint64_t seed = 1;
  for (size_t qsize : kSizes) {
    size_t attempts = 0;
    while ((small.by_size[qsize].size() < kPerCell ||
            large.by_size[qsize].size() < kPerCell) &&
           attempts++ < 1500) {
      QueryGenOptions qo;
      qo.num_nodes = qsize;
      qo.pc_probability = 0.0;
      qo.predicate_fraction = 0.0;
      qo.output_fraction = 1.0;
      qo.seed = seed++;
      auto q = GenerateRandomQuery(g, qo);
      if (!q.has_value()) continue;
      GteaOptions opts;
      opts.result_limit = 2000;
      size_t n = engines.gtea().Evaluate(*q, opts).tuples.size();
      if (n >= small.lo && n <= small.hi &&
          small.by_size[qsize].size() < kPerCell) {
        small.by_size[qsize].push_back(*q);
      } else if (n >= large.lo && n <= large.hi &&
                 large.by_size[qsize].size() < kPerCell) {
        large.by_size[qsize].push_back(*q);
      }
    }
  }

  std::printf("\nFig 9(a): queries per (size, group) and their result "
              "sizes\n%-6s %14s %14s\n", "Size", "small(2..50)",
              "large(200..1200)");
  for (size_t qsize : kSizes) {
    std::printf("%-6zu %14zu %14zu\n", qsize,
                small.by_size[qsize].size(), large.by_size[qsize].size());
  }

  for (const auto* group : {&small, &large}) {
    std::printf("\nFig 9(%s): avg query time (ms), %s-result group\n",
                group == &small ? "b" : "c",
                group == &small ? "small" : "large");
    std::printf("%-6s %12s %12s %12s %12s\n", "Size", "GTEA", "HGJoin*",
                "HGJoin+", "TwigStackD");
    const std::string group_name = group == &small ? "small" : "large";
    for (size_t qsize : kSizes) {
      const auto& queries = group->by_size.at(qsize);
      if (queries.empty()) continue;
      double t_gtea = 0, t_star = 0, t_plus = 0, t_tsd = 0;
      for (const auto& q : queries) {
        t_gtea += MinTimeMs([&] { engines.RunGtea(q); }, reps);
        t_star += MinTimeMs([&] { engines.RunHgJoinStar(q); }, reps);
        t_plus += MinTimeMs([&] { engines.RunHgJoinPlus(q); }, reps);
        t_tsd += MinTimeMs([&] { engines.RunTwigStackD(q); }, reps);
      }
      const double n = static_cast<double>(queries.size());
      std::printf("%-6zu %12.3f %12.3f %12.3f %12.3f\n", qsize,
                  t_gtea / n, t_star / n, t_plus / n, t_tsd / n);
      const std::string size_key = std::to_string(qsize);
      report.AddRow()
          .Add("group", group_name)
          .Add("query_size", size_key)
          .Add("gtea_ms", t_gtea / n)
          .Add("hgjoin_star_ms", t_star / n)
          .Add("hgjoin_plus_ms", t_plus / n)
          .Add("twigstackd_ms", t_tsd / n);
    }
  }

  std::printf("\nFig 9(d): filtering time (ms): GTEA pruning vs "
              "TwigStackD pre-filter\n%-6s %16s %16s %16s %16s\n",
              "Size", "GTEA-Small", "GTEA-Large", "TwigStackD-Small",
              "TwigStackD-Large");
  for (size_t qsize : kSizes) {
    double vals[4] = {0, 0, 0, 0};
    int col = 0;
    for (const auto* group : {&small, &large}) {
      const auto& queries = group->by_size.at(qsize);
      double prune = 0, prefilter = 0;
      for (const auto& q : queries) {
        engines.RunGtea(q);
        prune += engines.gtea().stats().ms(Stage::kPruneDown) +
                 engines.gtea().stats().ms(Stage::kPruneUp);
        prefilter += MinTimeMs(
            [&] {
              EngineStats s;
              TwigStackDPreFilter(g, q, &s);
            },
            reps);
      }
      const double n = std::max<size_t>(queries.size(), 1);
      vals[col] = prune / n;
      vals[col + 1] = prefilter / n;
      col += 2;
    }
    std::printf("%-6zu %16.3f %16.3f %16.3f %16.3f\n", qsize, vals[0],
                vals[2], vals[1], vals[3]);
    report.AddRow()
        .Add("query_size", std::to_string(qsize))
        .Add("gtea_prune_small_ms", vals[0])
        .Add("gtea_prune_large_ms", vals[2])
        .Add("twigstackd_prefilter_small_ms", vals[1])
        .Add("twigstackd_prefilter_large_ms", vals[3]);
  }
  std::printf("\nPaper shape: GTEA most robust across sizes/groups; "
              "TwigStackD degrades on this denser, deeper graph. Note: "
              "our pre-filter is an idealized bitmask DP, so unlike the "
              "paper's pool-based TwigStackD it stays flat here; GTEA's "
              "pruning cost grows with query size instead (see "
              "EXPERIMENTS.md).\n");
  if (json_path.has_value() && !report.WriteTo(*json_path)) return 1;
  return 0;
}

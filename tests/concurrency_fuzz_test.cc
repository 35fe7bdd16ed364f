// Randomized differential harness for concurrent serving (fixed
// seeds): the same GTPQ batch is answered by one sequential reference
// engine and by QueryServer at 8 threads, and the result lists must be
// identical — per query, over random DAGs and cyclic digraphs, for
// GTEA on plain and decorated oracles. Any cross-thread state bleed in
// engines, oracles, or decorators shows up as a mismatched result set
// here (and as a report under the TSan CI job).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/engines.h"
#include "graph/generators.h"
#include "query/query_generator.h"
#include "runtime/query_server.h"

namespace gtpq {
namespace {

struct FuzzCase {
  bool cyclic;
  uint64_t graph_seed;
};

std::vector<Gtpq> FuzzBatch(const DataGraph& g, size_t count,
                            uint64_t seed_base) {
  std::vector<Gtpq> queries;
  for (uint64_t seed = seed_base; queries.size() < count &&
                                  seed < seed_base + 20 * count;
       ++seed) {
    QueryGenOptions qo;
    qo.num_nodes = 4 + seed % 3;
    qo.pc_probability = 0.25;
    qo.predicate_fraction = 0.35;
    qo.output_fraction = 0.75;
    qo.disjunction_probability = 0.4;
    qo.negation_probability = 0.15;
    qo.seed = seed * 31 + 7;
    auto q = GenerateRandomQueryWithRetry(g, qo);
    if (q.has_value()) queries.push_back(std::move(*q));
  }
  return queries;
}

class ConcurrencyFuzzTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ConcurrencyFuzzTest, EightThreadServerMatchesSequential) {
  const std::string& spec = GetParam();
  for (const FuzzCase& fuzz :
       {FuzzCase{false, 19}, FuzzCase{false, 83}, FuzzCase{true, 57}}) {
    DataGraph g = fuzz.cyclic
                      ? RandomDigraph({.num_nodes = 60,
                                       .avg_degree = 2.0,
                                       .num_labels = 6,
                                       .seed = fuzz.graph_seed})
                      : RandomDag({.num_nodes = 80,
                                   .avg_degree = 2.2,
                                   .num_labels = 6,
                                   .locality = 1.0,
                                   .seed = fuzz.graph_seed});
    std::vector<Gtpq> queries = FuzzBatch(g, 20, fuzz.graph_seed * 101);
    ASSERT_GE(queries.size(), 8u) << "generator starved";

    // Sequential reference: ONE engine of the same spec, reused across
    // the whole batch on this thread.
    auto factory = SharedEngineFactory::Make(spec, g);
    ASSERT_NE(factory, nullptr) << spec;
    auto reference = factory->Create();
    std::vector<QueryResult> expected;
    expected.reserve(queries.size());
    for (const Gtpq& q : queries) expected.push_back(reference->Evaluate(q));

    QueryServer server(g, {.num_threads = 8, .engine_spec = spec});
    // Two passes: the second hits warm decorator caches, which must
    // not change any answer.
    for (int pass = 0; pass < 2; ++pass) {
      auto results = server.EvaluateBatch(queries);
      ASSERT_EQ(results.size(), queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        ASSERT_EQ(results[i], expected[i])
            << spec << " pass " << pass << " graph seed "
            << fuzz.graph_seed << (fuzz.cyclic ? " (cyclic)" : " (dag)")
            << " query " << i << ":\n"
            << queries[i].ToString(*g.attr_names());
      }
    }
    EXPECT_EQ(server.serving_stats().queries, 2 * queries.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ConcurrencyFuzzTest,
    ::testing::Values("gtea", "gtea:cached:contour",
                      "gtea:sharded:interval", "gtea:cached:sharded:interval",
                      "naive"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == ':' || c == '+' || c == '*') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace gtpq

// Differential tests for the Evaluator seam: GTEA must produce the
// identical normalized QueryResult as the naive brute-force engine
// under EVERY registered reachability backend, and engines must be
// reusable across queries without stale counters (stats hygiene).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "baselines/engines.h"
#include "core/gtea.h"
#include "graph/generators.h"
#include "query/query_generator.h"
#include "runtime/engine_factory.h"
#include "tests/test_util.h"

namespace gtpq {
namespace {

using testing::SmallDag;

class BackendDifferentialTest
    : public ::testing::TestWithParam<ReachabilityBackend> {};

TEST_P(BackendDifferentialTest, GteaMatchesNaiveOnRandomQueries) {
  for (bool cyclic : {false, true}) {
    DataGraph g = cyclic ? RandomDigraph({.num_nodes = 50,
                                          .avg_degree = 2.0,
                                          .num_labels = 6,
                                          .seed = 17})
                         : RandomDag({.num_nodes = 70,
                                      .avg_degree = 2.0,
                                      .num_labels = 6,
                                      .locality = 1.0,
                                      .seed = 17});
    BruteForceEngine naive(g);
    GteaEngine gtea(g, GetParam());
    int evaluated = 0;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      QueryGenOptions qo;
      qo.num_nodes = 6;
      qo.pc_probability = 0.3;
      qo.predicate_fraction = 0.4;
      qo.output_fraction = 0.7;
      qo.disjunction_probability = 0.5;
      qo.negation_probability = 0.2;
      qo.seed = seed * 13 + 1;
      auto q = GenerateRandomQueryWithRetry(g, qo);
      if (!q.has_value()) continue;
      ++evaluated;
      auto expected = naive.Evaluate(*q);
      auto actual = gtea.Evaluate(*q);
      ASSERT_EQ(actual, expected)
          << "backend " << gtea.index().name() << " seed " << seed
          << (cyclic ? " (cyclic)" : " (dag)") << "\nquery:\n"
          << q->ToString(*g.attr_names());
    }
    EXPECT_GT(evaluated, 8) << "generator produced too few queries";
  }
}

// Stats hygiene: a shared engine evaluated back-to-back must report
// identical per-query counters, not accumulated ones.
TEST_P(BackendDifferentialTest, RepeatedEvaluateDoesNotAccumulateStats) {
  DataGraph g = RandomDag({.num_nodes = 60,
                           .avg_degree = 2.0,
                           .num_labels = 5,
                           .locality = 1.0,
                           .seed = 5});
  GteaEngine engine(g, GetParam());
  QueryGenOptions qo;
  qo.num_nodes = 5;
  qo.seed = 3;
  auto q = GenerateRandomQueryWithRetry(g, qo);
  ASSERT_TRUE(q.has_value());
  auto first = engine.Evaluate(*q);
  const uint64_t input1 = engine.stats().input_nodes;
  const uint64_t index1 = engine.stats().index_lookups;
  auto second = engine.Evaluate(*q);
  EXPECT_EQ(first, second);
  EXPECT_EQ(engine.stats().input_nodes, input1);
  EXPECT_EQ(engine.stats().index_lookups, index1);
  EXPECT_EQ(engine.index().stats().elements_looked_up, index1);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendDifferentialTest,
    ::testing::ValuesIn(AllReachabilityBackends()),
    [](const ::testing::TestParamInfo<ReachabilityBackend>& info) {
      return std::string(ReachabilityBackendName(info.param));
    });

// The engine factory resolves every documented spec, and the engines
// that evaluate graph queries exactly (GTEA on any backend, naive,
// twigstackd, hgjoin) agree on conjunctive queries.
TEST(MakeEngineTest, GraphExactEnginesAgree) {
  DataGraph g = SmallDag();
  auto naive = SharedEngineFactory::Make("naive", g);
  ASSERT_NE(naive, nullptr);
  auto reference = naive->Create();

  QueryGenOptions qo;
  qo.num_nodes = 4;
  qo.pc_probability = 0.3;
  qo.output_fraction = 1.0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    qo.seed = seed;
    auto q = GenerateRandomQueryWithRetry(g, qo);
    if (!q.has_value()) continue;
    auto expected = reference->Evaluate(*q);
    for (const char* spec :
         {"gtea", "gtea:three_hop", "gtea:interval", "gtea:chain_cover",
          "gtea:transitive_closure", "gtea:sspi", "twigstackd", "hgjoin+",
          "hgjoin*"}) {
      auto factory = SharedEngineFactory::Make(spec, g);
      ASSERT_NE(factory, nullptr) << spec;
      EXPECT_EQ(factory->Create()->Evaluate(*q), expected)
          << spec << " disagrees with naive on seed " << seed;
    }
  }
}

// result_limit is part of the common contract: every engine caps its
// answer, and the capped tuples are genuine answers.
TEST(MakeEngineTest, ResultLimitHonoredAcrossEngines) {
  DataGraph g = SmallDag();
  QueryGenOptions qo;
  qo.num_nodes = 3;
  qo.seed = 2;
  auto q = GenerateRandomQueryWithRetry(g, qo);
  ASSERT_TRUE(q.has_value());
  auto naive = SharedEngineFactory::Make("naive", g);
  ASSERT_NE(naive, nullptr);
  auto full = naive->Create()->Evaluate(*q);
  ASSERT_GT(full.tuples.size(), 1u) << "query too selective for the test";
  GteaOptions capped;
  capped.result_limit = 1;
  for (const char* spec : {"gtea", "naive", "twigstackd", "hgjoin+"}) {
    auto factory = SharedEngineFactory::Make(spec, g);
    ASSERT_NE(factory, nullptr) << spec;
    auto limited = factory->Create()->Evaluate(*q, capped);
    ASSERT_EQ(limited.tuples.size(), 1u) << spec;
    EXPECT_TRUE(std::find(full.tuples.begin(), full.tuples.end(),
                          limited.tuples[0]) != full.tuples.end())
        << spec << " returned a tuple outside the full answer";
  }
}

TEST(MakeEngineTest, ResolvesAllSpecsAndRejectsUnknown) {
  DataGraph g = SmallDag();
  for (const char* spec :
       {"gtea", "naive", "twigstack", "twig2stack", "twigstackd",
        "hgjoin+", "hgjoin*", "decompose:twigstackd"}) {
    auto factory = SharedEngineFactory::Make(spec, g);
    ASSERT_NE(factory, nullptr) << spec;
    EXPECT_FALSE(std::string(factory->Create()->name()).empty());
  }
  EXPECT_EQ(SharedEngineFactory::Make("no_such_engine", g), nullptr);
  EXPECT_EQ(SharedEngineFactory::Make("gtea:no_such_backend", g), nullptr);
}

}  // namespace
}  // namespace gtpq

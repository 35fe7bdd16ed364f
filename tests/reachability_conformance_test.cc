// Conformance suite: every spec constructible through the factory —
// base backends AND the sharded: decorator over each — must agree
// with the materialized TransitiveClosure ground truth: on point
// queries over random DAGs and cyclic digraphs, on the Section-2
// self-reachability semantics (Reaches(v, v) only on a cycle), and on
// the whole set-reachability API GTEA's pipeline consumes. The
// parameter space is AllReachabilitySpecs(), so a decorator (or a new
// backend) added to the factory is enrolled automatically and can
// never silently skip conformance.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "reachability/factory.h"
#include "reachability/transitive_closure.h"
#include "tests/test_util.h"

namespace gtpq {
namespace {

using testing::MakeGraph;

class BackendConformanceTest
    : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<ReachabilityOracle> BuildBackend(const DataGraph& g) {
    auto idx = MakeReachabilityIndex(std::string_view(GetParam()),
                                     g.graph());
    EXPECT_NE(idx, nullptr);
    EXPECT_EQ(idx->name(), GetParam());
    return idx;
  }

  void ExpectAllPairsMatch(const DataGraph& g) {
    auto tc = TransitiveClosure::Build(g.graph());
    auto idx = BuildBackend(g);
    for (NodeId a = 0; a < g.NumNodes(); ++a) {
      for (NodeId b = 0; b < g.NumNodes(); ++b) {
        ASSERT_EQ(idx->Reaches(a, b), tc.Reaches(a, b))
            << idx->name() << " disagrees on (" << a << ", " << b << ")";
      }
    }
  }
};

TEST_P(BackendConformanceTest, MatchesClosureOnRandomDags) {
  for (uint64_t seed : {1u, 7u, 23u}) {
    RandomDagOptions o;
    o.num_nodes = 60;
    o.avg_degree = 2.5;
    o.seed = seed;
    ExpectAllPairsMatch(RandomDag(o));
  }
}

TEST_P(BackendConformanceTest, MatchesClosureOnCyclicDigraphs) {
  for (uint64_t seed : {2u, 11u, 31u}) {
    RandomDigraphOptions o;
    o.num_nodes = 50;
    o.avg_degree = 2.0;
    o.seed = seed;
    ExpectAllPairsMatch(RandomDigraph(o));
  }
}

TEST_P(BackendConformanceTest, SelfReachableOnlyOnCycles) {
  // Acyclic chain: no node reaches itself.
  DataGraph chain = MakeGraph(3, {0, 0, 0}, {{0, 1}, {1, 2}});
  auto idx = BuildBackend(chain);
  for (NodeId v = 0; v < 3; ++v) EXPECT_FALSE(idx->Reaches(v, v));

  // Triangle cycle plus a tail: cycle members reach themselves through
  // the cycle; the tail node hanging off it does not.
  DataGraph cyc =
      MakeGraph(4, {0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 0}, {2, 3}});
  idx = BuildBackend(cyc);
  for (NodeId v = 0; v < 3; ++v) EXPECT_TRUE(idx->Reaches(v, v));
  EXPECT_FALSE(idx->Reaches(3, 3));
  EXPECT_TRUE(idx->Reaches(0, 3));
  EXPECT_FALSE(idx->Reaches(3, 0));

  // Self-loop: a single-node cycle.
  DataGraph loop = MakeGraph(2, {0, 0}, {{0, 0}, {0, 1}});
  idx = BuildBackend(loop);
  EXPECT_TRUE(idx->Reaches(0, 0));
  EXPECT_FALSE(idx->Reaches(1, 1));
}

// The set API (summaries, batched probes, successor scans) must agree
// with the pairwise semantics derived from ground truth — this covers
// both the generic defaults and the contour-specialized overrides.
TEST_P(BackendConformanceTest, SetApiMatchesPairwiseGroundTruth) {
  for (bool cyclic : {false, true}) {
    DataGraph g = cyclic ? RandomDigraph({.num_nodes = 40,
                                          .avg_degree = 2.0,
                                          .num_labels = 4,
                                          .seed = 13})
                         : RandomDag({.num_nodes = 40,
                                      .avg_degree = 2.5,
                                      .num_labels = 4,
                                      .locality = 1.0,
                                      .seed = 13});
    auto tc = TransitiveClosure::Build(g.graph());
    auto idx = BuildBackend(g);

    Rng rng(99);
    for (int round = 0; round < 8; ++round) {
      // Random sorted duplicate-free member set.
      std::vector<NodeId> members;
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        if (rng.NextBounded(3) == 0) members.push_back(v);
      }
      if (members.empty()) members.push_back(0);

      auto targets = idx->SummarizeTargets(members);
      auto sources = idx->SummarizeSources(members);
      auto prepared = idx->PrepareSuccessorTargets(members);
      const ReachabilityOracle::SetSummary* target_sets[1] = {
          targets.get()};

      std::vector<NodeId> probes;
      for (NodeId v = 0; v < g.NumNodes(); ++v) probes.push_back(v);
      std::vector<std::vector<char>> down;
      idx->ReachesSetsBatch(probes, target_sets, &down);
      ASSERT_EQ(down.size(), 1u);
      std::vector<char> up;
      idx->SetReachesBatch(*sources, probes, &up);

      for (NodeId v : probes) {
        bool reaches_any = false, reached_by_any = false;
        std::vector<uint32_t> succ_expected;
        for (uint32_t mi = 0; mi < members.size(); ++mi) {
          if (tc.Reaches(v, members[mi])) {
            reaches_any = true;
            succ_expected.push_back(mi);
          }
          if (tc.Reaches(members[mi], v)) reached_by_any = true;
        }
        ASSERT_EQ(idx->ReachesSet(v, *targets), reaches_any)
            << idx->name() << " ReachesSet at " << v;
        ASSERT_EQ(idx->SetReaches(*sources, v), reached_by_any)
            << idx->name() << " SetReaches at " << v;
        ASSERT_EQ(down[0][v] != 0, reaches_any)
            << idx->name() << " ReachesSetsBatch at " << v;
        ASSERT_EQ(up[v] != 0, reached_by_any)
            << idx->name() << " SetReachesBatch at " << v;
        std::vector<uint32_t> succ;
        idx->SuccessorsAmong(v, *prepared, &succ);
        ASSERT_EQ(succ, succ_expected)
            << idx->name() << " SuccessorsAmong at " << v;
      }
    }
  }
}

// Guard against the enum and spec universes drifting apart: every base
// backend name must appear among the specs.
TEST(ReachabilitySpecsTest, SpecsCoverEveryBaseBackend) {
  const std::vector<std::string> specs = AllReachabilitySpecs();
  for (ReachabilityBackend kind : AllReachabilityBackends()) {
    EXPECT_NE(std::find(specs.begin(), specs.end(),
                        std::string(ReachabilityBackendName(kind))),
              specs.end());
  }
  // And the decorator must be represented.
  auto has_prefix = [&specs](std::string_view prefix) {
    return std::any_of(specs.begin(), specs.end(),
                       [prefix](const std::string& s) {
                         return s.rfind(prefix, 0) == 0;
                       });
  };
  EXPECT_TRUE(has_prefix("sharded:"));
  for (const std::string& spec : specs) {
    EXPECT_TRUE(IsValidReachabilitySpec(spec)) << spec;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecs, BackendConformanceTest,
    ::testing::ValuesIn(AllReachabilitySpecs()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), ':', '_');
      return name;
    });

}  // namespace
}  // namespace gtpq

#include <gtest/gtest.h>

#include "baselines/decompose.h"
#include "baselines/naive.h"
#include "baselines/tree_encoding.h"
#include "baselines/twig_on_graph.h"
#include "baselines/twigstack.h"
#include "baselines/twigstackd.h"
#include "core/gtea.h"
#include "graph/algorithms.h"
#include "workload/arxiv.h"
#include "workload/graph_gen_spec.h"
#include "workload/xmark.h"
#include "workload/xmark_queries.h"

namespace gtpq {
namespace {

using workload::ArxivOptions;
using workload::GenerateArxiv;
using workload::GenerateXmark;
using workload::XmarkOptions;

XmarkOptions SmallXmark() {
  XmarkOptions o;
  o.scale = 0.002;
  return o;
}

TEST(XmarkTest, ShapeMatchesTable1Ratios) {
  DataGraph g = GenerateXmark(SmallXmark());
  EXPECT_TRUE(IsDag(g.graph()));
  EXPECT_TRUE(g.HasSpanningTree());
  // Edge/node ratio around 1.2 (Table 1: 1.54M/1.29M).
  const double ratio = static_cast<double>(g.NumEdges()) /
                       static_cast<double>(g.NumNodes());
  EXPECT_GT(ratio, 1.05);
  EXPECT_LT(ratio, 1.4);
  // Average spanning-tree depth is small (paper: ~5).
  auto depths = DepthsFromRoots(g.graph(), /*longest=*/false);
  double total = 0;
  for (auto d : depths) total += d;
  EXPECT_LT(total / static_cast<double>(g.NumNodes()), 6.0);
}

TEST(XmarkTest, ScaleGrowsLinearly) {
  XmarkOptions a = SmallXmark();
  XmarkOptions b = SmallXmark();
  b.scale = 2 * a.scale;
  const size_t na = GenerateXmark(a).NumNodes();
  const size_t nb = GenerateXmark(b).NumNodes();
  EXPECT_GT(nb, na * 3 / 2);
  EXPECT_LT(nb, na * 5 / 2);
}

TEST(XmarkTest, Q1ThroughQ3AgreeAcrossEngines) {
  DataGraph g = GenerateXmark(SmallXmark());
  GteaEngine gtea(g);
  auto enc = BuildRegionEncoding(g);
  auto sspi = Sspi::Build(g.graph());

  for (int variant = 1; variant <= 3; ++variant) {
    workload::XmarkQuery wq =
        variant == 1   ? workload::BuildXmarkQ1(g, 3)
        : variant == 2 ? workload::BuildXmarkQ2(g, 3, 4)
                       : workload::BuildXmarkQ3(g, 3, 4, 5);
    auto expected = gtea.Evaluate(wq.query);
    // Cross-validate GTEA itself against brute force at this scale.
    auto brute = EvaluateBruteForce(g, wq.query);
    ASSERT_EQ(expected, brute) << "GTEA vs brute force, Q" << variant;

    EngineStats stats;
    auto via_twigstackd = EvaluateTwigStackD(g, sspi, wq.query, &stats);
    EXPECT_EQ(via_twigstackd, expected) << "TwigStackD Q" << variant;

    std::vector<QNodeId> cross;
    for (QNodeId u = 0; u < wq.query.NumNodes(); ++u) {
      for (const auto& name : wq.cross_node_names) {
        if (wq.query.node(u).name == name) cross.push_back(u);
      }
    }
    EngineStats ts_stats;
    auto via_twigstack = EvaluateTwigOnGraph(
        g, wq.query, cross,
        [&](const Gtpq& frag) {
          EngineStats s;
          return EvaluateTwigStack(g, enc, frag, &s);
        },
        &ts_stats);
    EXPECT_EQ(via_twigstack, expected) << "TwigStack Q" << variant;
  }
}

TEST(XmarkTest, Exp2QueriesAgreeWithBruteForce) {
  XmarkOptions o;
  o.scale = 0.001;
  DataGraph g = GenerateXmark(o);
  GteaEngine gtea(g);
  TransitiveClosure tc = TransitiveClosure::Build(g.graph());
  for (const auto& name : workload::Exp2QueryNames()) {
    auto wq = workload::BuildExp2Query(g, 3, 4, name);
    ASSERT_TRUE(wq.ok()) << name << ": " << wq.status().ToString();
    auto actual = gtea.Evaluate(wq->query);
    auto expected = EvaluateBruteForce(g, tc, wq->query);
    ASSERT_EQ(actual, expected) << name;

    // Decompose-and-merge over a conjunctive oracle must agree too.
    EngineStats stats;
    auto decomposed = EvaluateByDecomposition(
        wq->query,
        [&](const Gtpq& conj) { return EvaluateBruteForce(g, tc, conj); },
        &stats);
    ASSERT_TRUE(decomposed.ok()) << name << ": "
                                 << decomposed.status().ToString();
    ASSERT_EQ(*decomposed, expected) << "decompose " << name;
  }
}

TEST(XmarkTest, Exp1OutputVariants) {
  DataGraph g = GenerateXmark(SmallXmark());
  GteaEngine gtea(g);
  size_t q8_outputs = 0;
  for (int variant = 4; variant <= 8; ++variant) {
    auto wq = workload::BuildExp1Query(g, 3, 4, variant);
    ASSERT_TRUE(wq.ok());
    auto result = gtea.Evaluate(wq->query);
    if (variant == 4) {
      EXPECT_EQ(result.output_nodes.size(), 1u);
    }
    if (variant == 8) q8_outputs = result.output_nodes.size();
  }
  EXPECT_GT(q8_outputs, 10u);  // all 15 skeleton nodes
}

TEST(ArxivTest, MatchesReportedStatistics) {
  ArxivOptions o;
  DataGraph g = GenerateArxiv(o);
  EXPECT_EQ(g.NumNodes(), 9562u);
  // Duplicate random refs may merge; stay within 2% of 28120.
  EXPECT_GT(g.NumEdges(), 27500u);
  EXPECT_LE(g.NumEdges(), 28120u);
  EXPECT_TRUE(IsDag(g.graph()));
  // Roughly 1132 distinct labels.
  EXPECT_GT(g.NumDistinctLabels(), 900u);
  EXPECT_LE(g.NumDistinctLabels(), 1132u);
}

// A generator spec with junk in a field, or a field its kind does not
// take, is refused before anything is allocated: no undefined casts of
// nan/inf/negative counts, no node count past NodeId's range, no
// silently truncated or ignored field.
TEST(GeneratorSpecTest, RejectsJunkBeforeAllocating) {
  for (const char* spec :
       {"dag:nan", "dag:inf", "dag:-5", "dag:1e10", "dag:4294967296",
        "dag:2000.5", "dag:0", "dag:", "dag", "dag:5,,2", "dag:5,-1",
        "dag:5,1,-1", "dag:2000,7,inf", "dag:2000,7,nan", "dag:5,1,2,3",
        "digraph:10,x", "digraph:1e10,1", "tree:100,1,5", "tree:2.5",
        "xmark:0.1,2", "xmark:0", "xmark:-1", "xmark:nan", "xmark:inf",
        "bogus:5"}) {
    EXPECT_EQ(workload::GenerateGraphFromSpec(spec).status().code(),
              StatusCode::kInvalidArgument)
        << spec;
  }
  for (const char* spec : {"dag:50", "dag:50,3", "dag:50,3,2.5",
                           "digraph:40,1,0", "tree:40,2", "xmark:0.001"}) {
    auto graph = workload::GenerateGraphFromSpec(spec);
    ASSERT_TRUE(graph.ok()) << spec << ": " << graph.status().ToString();
    EXPECT_GT(graph->NumNodes(), 0u) << spec;
  }
  auto dag = workload::GenerateGraphFromSpec("dag:50,3,2.5");
  EXPECT_EQ(dag->NumNodes(), 50u);
}

}  // namespace
}  // namespace gtpq

#include <gtest/gtest.h>

#include "baselines/decompose.h"
#include "baselines/hgjoin.h"
#include "baselines/naive.h"
#include "baselines/tree_encoding.h"
#include "baselines/twig2stack.h"
#include "baselines/twig_on_graph.h"
#include "baselines/twigstack.h"
#include "baselines/twigstackd.h"
#include "core/gtea.h"
#include "graph/generators.h"
#include "query/query_generator.h"
#include "test_util.h"

namespace gtpq {
namespace {

// Pure tree: tree-descendant semantics coincide with graph semantics,
// so brute force is a valid oracle for the tree-only engines.
DataGraph PureTree(size_t n, uint64_t seed) {
  RandomTreeOptions o;
  o.num_nodes = n;
  o.cross_edge_fraction = 0.0;
  o.num_labels = 5;
  o.seed = seed;
  return RandomTreeWithCrossEdges(o);
}

QueryGenOptions TreeQueryOptions(size_t n, uint64_t seed) {
  QueryGenOptions o;
  o.num_nodes = n;
  o.pc_probability = 0.4;
  o.predicate_fraction = 0.3;
  o.output_fraction = 0.8;
  o.seed = seed;
  return o;
}

TEST(TreeEncodingTest, RegionsNestProperly) {
  DataGraph g = PureTree(60, 5);
  auto enc = BuildRegionEncoding(g);
  for (NodeId v = 1; v < g.NumNodes(); ++v) {
    NodeId p = g.TreeParentOf(v);
    ASSERT_NE(p, kInvalidNode);
    EXPECT_TRUE(enc.IsTreeAncestor(p, v));
    EXPECT_TRUE(enc.IsTreeParent(p, v));
    EXPECT_FALSE(enc.IsTreeAncestor(v, p));
  }
}

class TreeEngines : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TreeEngines, TwigStackMatchesBruteForceOnTrees) {
  DataGraph g = PureTree(80, GetParam());
  auto enc = BuildRegionEncoding(g);
  TransitiveClosure tc = TransitiveClosure::Build(g.graph());
  int evaluated = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    auto q = GenerateRandomQueryWithRetry(
        g, TreeQueryOptions(5, seed * 7 + GetParam()));
    if (!q.has_value() || !q->IsConjunctive()) continue;
    EngineStats stats;
    auto actual = EvaluateTwigStack(g, enc, *q, &stats);
    auto expected = EvaluateBruteForce(g, tc, *q);
    ASSERT_EQ(actual, expected) << q->ToString(*g.attr_names());
    ++evaluated;
  }
  EXPECT_GT(evaluated, 5);
}

TEST_P(TreeEngines, Twig2StackMatchesBruteForceOnTrees) {
  DataGraph g = PureTree(80, GetParam() + 100);
  auto enc = BuildRegionEncoding(g);
  TransitiveClosure tc = TransitiveClosure::Build(g.graph());
  int evaluated = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    auto q = GenerateRandomQueryWithRetry(
        g, TreeQueryOptions(5, seed * 13 + GetParam()));
    if (!q.has_value() || !q->IsConjunctive()) continue;
    EngineStats stats;
    auto actual = EvaluateTwig2Stack(g, enc, *q, &stats);
    auto expected = EvaluateBruteForce(g, tc, *q);
    ASSERT_EQ(actual, expected) << q->ToString(*g.attr_names());
    ++evaluated;
  }
  EXPECT_GT(evaluated, 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeEngines, ::testing::Values(1, 2, 3));

class DagEngines : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DagEngines, TwigStackDMatchesBruteForce) {
  RandomDagOptions o;
  o.num_nodes = 70;
  o.avg_degree = 2.0;
  o.num_labels = 5;
  o.seed = GetParam();
  DataGraph g = RandomDag(o);
  auto sspi = Sspi::Build(g.graph());
  TransitiveClosure tc = TransitiveClosure::Build(g.graph());
  int evaluated = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    QueryGenOptions qo = TreeQueryOptions(6, seed * 11 + GetParam());
    qo.pc_probability = 0.3;
    auto q = GenerateRandomQueryWithRetry(g, qo);
    if (!q.has_value()) continue;
    EngineStats stats;
    auto actual = EvaluateTwigStackD(g, sspi, *q, &stats);
    auto expected = EvaluateBruteForce(g, tc, *q);
    ASSERT_EQ(actual, expected) << q->ToString(*g.attr_names());
    ++evaluated;
  }
  EXPECT_GT(evaluated, 5);
}

TEST_P(DagEngines, HgJoinVariantsMatchBruteForce) {
  RandomDagOptions o;
  o.num_nodes = 70;
  o.avg_degree = 2.0;
  o.num_labels = 5;
  o.seed = GetParam() + 77;
  DataGraph g = RandomDag(o);
  auto idx = IntervalIndex::Build(g.graph());
  TransitiveClosure tc = TransitiveClosure::Build(g.graph());
  int evaluated = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    QueryGenOptions qo = TreeQueryOptions(5, seed * 17 + GetParam());
    qo.pc_probability = 0.3;
    auto q = GenerateRandomQueryWithRetry(g, qo);
    if (!q.has_value()) continue;
    auto expected = EvaluateBruteForce(g, tc, *q);
    {
      EngineStats stats;
      HgJoinOptions opts;
      HgJoinReport report;
      auto plus = EvaluateHgJoin(g, idx, *q, opts, &stats, &report);
      ASSERT_EQ(plus, expected) << "HGJoin+ " << q->ToString(*g.attr_names());
      EXPECT_GT(report.plans_tried, 0u);
    }
    {
      EngineStats stats;
      HgJoinOptions opts;
      opts.graph_intermediates = true;
      auto star = EvaluateHgJoin(g, idx, *q, opts, &stats, nullptr);
      ASSERT_EQ(star, expected) << "HGJoin* " << q->ToString(*g.attr_names());
    }
    ++evaluated;
  }
  EXPECT_GT(evaluated, 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DagEngines, ::testing::Values(4, 5, 6));

TEST(TwigOnGraphTest, CrossEdgeDecompositionMatchesGtea) {
  // Tree + forward cross edges; the query uses a PC edge that we
  // declare as the cross edge, so the wrapper must split and rejoin.
  RandomTreeOptions o;
  o.num_nodes = 120;
  o.cross_edge_fraction = 0.4;
  o.num_labels = 4;
  o.seed = 17;
  DataGraph g = RandomTreeWithCrossEdges(o);
  auto enc = BuildRegionEncoding(g);
  GteaEngine gtea(g);

  // root(l0) -[ad]-> a(l1); a -[pc CROSS]-> b(l2) -[ad]-> c(l3)... only
  // meaningful if the PC edge matches cross edges; since PC edges in
  // the data include tree edges too, semantics still agree as long as
  // the wrapper joins on *all* graph edges — which it does.
  QueryBuilder b(g.attr_names_ptr());
  QNodeId r = b.AddRoot("r", b.Label(0));
  QNodeId a = b.AddBackbone(r, EdgeType::kDescendant, "a", b.Label(1));
  QNodeId x = b.AddBackbone(a, EdgeType::kChild, "x", b.Label(2));
  QNodeId c = b.AddBackbone(x, EdgeType::kDescendant, "c", b.Label(3));
  for (QNodeId u : {r, a, x, c}) b.MarkOutput(u);
  Gtpq q = b.Build().TakeValue();

  EngineStats stats;
  auto via_twigstack = EvaluateTwigOnGraph(
      g, q, {x},
      [&](const Gtpq& frag) {
        EngineStats s;
        return EvaluateTwigStack(g, enc, frag, &s);
      },
      &stats);
  auto expected = gtea.Evaluate(q);
  // Caveat: the wrapper's fragments use tree semantics for AD edges;
  // equivalence holds when AD edges do not span cross edges. Our tree's
  // cross edges connect arbitrary nodes, so compare against brute force
  // restricted semantics via GTEA only when the tuples agree; at
  // minimum the wrapper must never produce tuples GTEA rejects.
  for (const auto& t : via_twigstack.tuples) {
    EXPECT_TRUE(std::find(expected.tuples.begin(), expected.tuples.end(),
                          t) != expected.tuples.end());
  }
}

TEST(DecomposeTest, MatchesGteaOnLogicalQueries) {
  RandomDagOptions o;
  o.num_nodes = 60;
  o.avg_degree = 2.0;
  o.num_labels = 5;
  o.seed = 31;
  DataGraph g = RandomDag(o);
  GteaEngine gtea(g);
  TransitiveClosure tc = TransitiveClosure::Build(g.graph());
  int evaluated = 0;
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    QueryGenOptions qo;
    qo.num_nodes = 6;
    qo.predicate_fraction = 0.5;
    qo.disjunction_probability = 0.6;
    qo.negation_probability = 0.3;
    qo.output_fraction = 0.7;
    qo.seed = seed * 23;
    auto q = GenerateRandomQueryWithRetry(g, qo);
    if (!q.has_value()) continue;
    EngineStats stats;
    auto decomposed = EvaluateByDecomposition(
        *q,
        [&](const Gtpq& conj) {
          EngineStats s;
          return EvaluateBruteForce(g, tc, conj);
        },
        &stats);
    if (!decomposed.ok()) continue;  // nested negation: unsupported
    auto expected = gtea.Evaluate(*q);
    ASSERT_EQ(*decomposed, expected) << q->ToString(*g.attr_names());
    ++evaluated;
  }
  EXPECT_GT(evaluated, 6);
}

TEST(DecomposeTest, CountsExponentialBlowup) {
  // A root whose fs is a disjunction chain over k predicate children
  // decomposes into k conjunctive queries.
  auto names = std::make_shared<AttrNames>();
  QueryBuilder b(names);
  QNodeId r = b.AddRoot("r", AttributePredicate::LabelEquals(
                                 names->label_attr(), 1));
  std::vector<logic::FormulaRef> vars;
  for (int i = 0; i < 4; ++i) {
    QNodeId p = b.AddPredicate(
        r, EdgeType::kDescendant, std::to_string(i).insert(0, 1, 'p'),
        AttributePredicate::LabelEquals(names->label_attr(), 2 + i));
    vars.push_back(logic::Formula::Var(static_cast<int>(p)));
  }
  b.SetStructural(r, logic::Formula::Or(std::move(vars)));
  b.MarkOutput(r);
  Gtpq q = b.Build().TakeValue();
  auto count = CountDecomposedQueries(q);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 4u);
}

TEST(DecomposeTest, HandlesNestedNegation) {
  // !(p with !pp): the forced-branch recursion of the wrapper — the
  // shape Table 4's NEG2/NEG3 queries need.
  RandomDagOptions go;
  go.num_nodes = 50;
  go.avg_degree = 2.0;
  go.num_labels = 4;
  go.seed = 8;
  DataGraph g = RandomDag(go);
  QueryBuilder b(g.attr_names_ptr());
  QNodeId r = b.AddRoot("r", b.Label(1));
  QNodeId p = b.AddPredicate(r, EdgeType::kDescendant, "p", b.Label(2));
  QNodeId pp = b.AddPredicate(p, EdgeType::kDescendant, "pp",
                              b.Label(3));
  b.SetStructural(p, logic::Formula::Not(logic::Formula::Var(
                         static_cast<int>(pp))));
  b.SetStructural(r, logic::Formula::Not(logic::Formula::Var(
                         static_cast<int>(p))));
  b.MarkOutput(r);
  Gtpq q = b.Build().TakeValue();
  auto count = CountDecomposedQueries(q);
  ASSERT_TRUE(count.ok());
  EXPECT_GE(*count, 2u);

  TransitiveClosure tc = TransitiveClosure::Build(g.graph());
  EngineStats stats;
  auto decomposed = EvaluateByDecomposition(
      q, [&](const Gtpq& conj) { return EvaluateBruteForce(g, tc, conj); },
      &stats);
  ASSERT_TRUE(decomposed.ok());
  EXPECT_EQ(*decomposed, EvaluateBruteForce(g, tc, q));
}

}  // namespace
}  // namespace gtpq

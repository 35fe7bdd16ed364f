#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "test_util.h"

namespace gtpq {
namespace {

using testing::MakeGraph;
using testing::SmallDag;

TEST(DigraphTest, BasicConstruction) {
  Digraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(2, 3);
  g.AddEdge(0, 1);  // duplicate merged
  g.Finalize();
  EXPECT_EQ(g.NumNodes(), 4u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(3), 1u);
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(2, 0));
  auto in1 = g.InNeighbors(1);
  ASSERT_EQ(in1.size(), 1u);
  EXPECT_EQ(in1[0], 0u);
}

TEST(DigraphTest, Reversed) {
  Digraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.Finalize();
  Digraph r = g.Reversed();
  EXPECT_TRUE(r.HasEdge(1, 0));
  EXPECT_TRUE(r.HasEdge(2, 1));
  EXPECT_FALSE(r.HasEdge(0, 1));
}

TEST(AlgorithmsTest, TopologicalSort) {
  DataGraph g = SmallDag();
  auto order = TopologicalSort(g.graph());
  ASSERT_EQ(order.size(), g.NumNodes());
  std::vector<size_t> pos(g.NumNodes());
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (NodeId w : g.OutNeighbors(v)) {
      EXPECT_LT(pos[v], pos[w]);
    }
  }
}

TEST(AlgorithmsTest, CycleDetection) {
  DataGraph g = MakeGraph(3, {0, 0, 0}, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_TRUE(TopologicalSort(g.graph()).empty());
  EXPECT_FALSE(IsDag(g.graph()));
  EXPECT_TRUE(IsDag(SmallDag().graph()));
}

TEST(AlgorithmsTest, SccOnMixedGraph) {
  // Two 2-cycles and two singletons: {1,2}, {4,5}, {0}, {3}.
  DataGraph g = MakeGraph(
      6, {0, 0, 0, 0, 0, 0},
      {{0, 1}, {1, 2}, {2, 1}, {2, 3}, {3, 4}, {4, 5}, {5, 4}});
  auto scc = ComputeScc(g.graph());
  EXPECT_EQ(scc.num_components, 4u);
  EXPECT_EQ(scc.component_of[1], scc.component_of[2]);
  EXPECT_EQ(scc.component_of[4], scc.component_of[5]);
  EXPECT_NE(scc.component_of[0], scc.component_of[1]);
  EXPECT_TRUE(scc.cyclic[scc.component_of[1]]);
  EXPECT_FALSE(scc.cyclic[scc.component_of[0]]);
  EXPECT_FALSE(scc.cyclic[scc.component_of[3]]);

  Digraph cond = BuildCondensation(g.graph(), scc);
  EXPECT_EQ(cond.NumNodes(), 4u);
  EXPECT_TRUE(IsDag(cond));
}

TEST(AlgorithmsTest, SccSelfLoop) {
  DataGraph g = MakeGraph(2, {0, 0}, {{0, 0}, {0, 1}});
  auto scc = ComputeScc(g.graph());
  EXPECT_EQ(scc.num_components, 2u);
  EXPECT_TRUE(scc.cyclic[scc.component_of[0]]);
  EXPECT_FALSE(scc.cyclic[scc.component_of[1]]);
}

TEST(AlgorithmsTest, ReachableFrom) {
  DataGraph g = SmallDag();
  auto reach = ReachableFrom(g.graph(), 1);
  EXPECT_EQ(reach, (std::vector<NodeId>{3, 4, 6, 7, 9}));
}

TEST(AlgorithmsTest, SccTarjanDeepRecursionSafe) {
  // A long path would blow the stack with a recursive Tarjan.
  const size_t n = 200000;
  Digraph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.AddEdge(v, v + 1);
  g.Finalize();
  auto scc = ComputeScc(g);
  EXPECT_EQ(scc.num_components, n);
}

TEST(GeneratorsTest, RandomDagIsDag) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    RandomDagOptions o;
    o.num_nodes = 300;
    o.avg_degree = 3.0;
    o.seed = seed;
    DataGraph g = RandomDag(o);
    EXPECT_TRUE(IsDag(g.graph()));
    EXPECT_GT(g.NumEdges(), 0u);
  }
}

TEST(GeneratorsTest, TreeWithCrossEdgesHasSpanningTree) {
  RandomTreeOptions o;
  o.num_nodes = 200;
  o.seed = 3;
  DataGraph g = RandomTreeWithCrossEdges(o);
  EXPECT_TRUE(g.HasSpanningTree());
  EXPECT_TRUE(IsDag(g.graph()));
  size_t tree_edges = 0;
  for (NodeId v = 1; v < g.NumNodes(); ++v) {
    NodeId p = g.TreeParentOf(v);
    ASSERT_NE(p, kInvalidNode);
    EXPECT_TRUE(g.HasEdge(p, v));
    ++tree_edges;
  }
  EXPECT_EQ(tree_edges, g.NumNodes() - 1);
}

TEST(AttributesTest, TupleAndPredicateBasics) {
  DataGraph g(2);
  g.SetLabel(0, 5);
  g.SetAttr(0, "year", AttrValue(int64_t{2005}));
  g.SetAttr(0, "name", AttrValue("alice"));
  g.Finalize();
  AttrId year = g.attr_names()->Intern("year");
  AttrId name = g.attr_names()->Intern("name");
  ASSERT_NE(g.GetAttr(0, year), nullptr);
  EXPECT_EQ(g.GetAttr(0, year)->as_int(), 2005);
  EXPECT_EQ(g.GetAttr(0, name)->as_string(), "alice");
  EXPECT_EQ(g.GetAttr(1, year), nullptr);
  EXPECT_EQ(g.GetAttr(0, g.label_attr())->as_int(), 5);
}

TEST(AttributesTest, ValueComparisons) {
  EXPECT_TRUE(AttrValue(int64_t{3}) < AttrValue(int64_t{5}));
  EXPECT_TRUE(AttrValue(3.5) > AttrValue(int64_t{3}));
  EXPECT_TRUE(AttrValue(int64_t{3}) == AttrValue(3.0));
  EXPECT_TRUE(AttrValue("abc") < AttrValue("abd"));
  // Numbers sort before strings.
  EXPECT_TRUE(AttrValue(int64_t{99}) < AttrValue("1"));
}

// %g renders large or small doubles with an exponent ("1e+06"); those
// must read back as doubles, never as a malformed or truncated integer.
TEST(AttributesTest, ParsesNumericTokens) {
  AttrValue v;
  ASSERT_TRUE(ParseNumericAttrValue(AttrValue(1e6).ToString(), &v));
  EXPECT_TRUE(v.is_double());
  EXPECT_EQ(v.as_double(), 1e6);
  ASSERT_TRUE(ParseNumericAttrValue("2.5E-3", &v));
  EXPECT_EQ(v.as_double(), 2.5e-3);
  ASSERT_TRUE(ParseNumericAttrValue("-42", &v));
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), -42);
  for (const char* bad : {"", "12ab", "1.2.3", "1e", "+3",
                          "99999999999999999999", "1e999"}) {
    AttrValue untouched(int64_t{7});
    EXPECT_FALSE(ParseNumericAttrValue(bad, &untouched)) << bad;
    EXPECT_EQ(untouched.as_int(), 7) << bad;
  }
}

TEST(GraphIoTest, RoundTrip) {
  DataGraph g = SmallDag();
  g.SetAttr(3, "year", AttrValue(int64_t{2001}));
  g.SetAttr(4, "name", AttrValue("bob"));
  g.Finalize();
  std::ostringstream out;
  ASSERT_TRUE(SaveDataGraph(g, &out).ok());
  std::istringstream in(out.str());
  auto loaded = LoadDataGraph(&in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumNodes(), g.NumNodes());
  EXPECT_EQ(loaded->NumEdges(), g.NumEdges());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(loaded->LabelOf(v), g.LabelOf(v));
  }
  AttrId year = loaded->attr_names()->Lookup("year");
  ASSERT_NE(year, -1);
  ASSERT_NE(loaded->GetAttr(3, year), nullptr);
  EXPECT_EQ(loaded->GetAttr(3, year)->as_int(), 2001);
}

// Every malformed line is a ParseError naming its line — never an
// exception, an abort, or a silently different graph.
TEST(GraphIoTest, RejectsMalformedLinesWithTheirLineNumber) {
  const struct {
    const char* text;
    int line;
  } kCases[] = {
      {"bogus header\n", 1},
      {"gtpq-graph v1\nnodes 2\nend\n", 1},
      {"gtpq-graph v2\nnodes abc\nend\n", 2},
      {"gtpq-graph v2\nnodes -1\nend\n", 2},
      {"gtpq-graph v2\nnodes 2\nedge 0 x\nend\n", 3},
      {"gtpq-graph v2\nnodes 2\nedge 0 4294967297\nend\n", 3},
      {"gtpq-graph v2\nnodes 2\nedge 0 7\nend\n", 3},
      {"gtpq-graph v2\nnodes 2\nedge 0 1 bogus\nend\n", 3},
      {"gtpq-graph v2\nnodes 2\nnode x 1\nend\n", 3},
      {"gtpq-graph v2\nnodes 2\nnode 0 abc\nend\n", 3},
      {"gtpq-graph v2\nnodes 2\nnode 0 99999999999999999999\nend\n", 3},
      {"gtpq-graph v2\nnodes 2\nnode 0 1 year=12ab\nend\n", 3},
      {"gtpq-graph v2\nnodes 2\nnode 0 1 score=1.2.3\nend\n", 3},
      {"gtpq-graph v2\nnodes 2\nnode 0 1 flag\nend\n", 3},
      {"gtpq-graph v2\nnodes 2\nfrobnicate\nend\n", 3},
      {"gtpq-graph v2\nnodes 2\nend now\n", 3},
      // A cut file: no closing `end`.
      {"gtpq-graph v2\nnodes 2\nedge 0 1\n", 3},
      // Anything after `end`, as in two files run together.
      {"gtpq-graph v2\nnodes 2\nend\nedge 0 1\n", 4},
  };
  for (const auto& c : kCases) {
    std::istringstream in(c.text);
    const Status status = LoadDataGraph(&in).status();
    EXPECT_EQ(status.code(), StatusCode::kParseError) << c.text;
    EXPECT_TRUE(status.message().ends_with("at line " +
                                           std::to_string(c.line)))
        << c.text << " -> " << status.ToString();
  }
}

}  // namespace
}  // namespace gtpq

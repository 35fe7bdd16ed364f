#include <gtest/gtest.h>

#include "query/query_generator.h"
#include "query/query_parser.h"
#include "test_util.h"

namespace gtpq {
namespace {

using logic::Formula;
using testing::SmallDag;

TEST(AttributePredicateTest, MatchSemantics) {
  DataGraph g(2);
  g.SetLabel(0, 3);
  g.SetAttr(0, "year", AttrValue(int64_t{2005}));
  g.Finalize();
  AttrId year = g.attr_names()->Intern("year");

  AttributePredicate p;
  p.AddAtom(year, CmpOp::kGe, AttrValue(int64_t{2000}));
  p.AddAtom(year, CmpOp::kLe, AttrValue(int64_t{2010}));
  EXPECT_TRUE(p.Matches(g, 0));
  EXPECT_FALSE(p.Matches(g, 1));  // attribute absent

  AttributePredicate strict;
  strict.AddAtom(year, CmpOp::kGt, AttrValue(int64_t{2005}));
  EXPECT_FALSE(strict.Matches(g, 0));
}

TEST(AttributePredicateTest, Satisfiability) {
  AttrId a = 1;
  {
    AttributePredicate p;
    p.AddAtom(a, CmpOp::kGe, AttrValue(int64_t{5}));
    p.AddAtom(a, CmpOp::kLe, AttrValue(int64_t{3}));
    EXPECT_FALSE(p.IsSatisfiable());
  }
  {
    AttributePredicate p;
    p.AddAtom(a, CmpOp::kGe, AttrValue(int64_t{5}));
    p.AddAtom(a, CmpOp::kLe, AttrValue(int64_t{5}));
    EXPECT_TRUE(p.IsSatisfiable());
    p.AddAtom(a, CmpOp::kNe, AttrValue(int64_t{5}));
    EXPECT_FALSE(p.IsSatisfiable());
  }
  {
    AttributePredicate p;
    p.AddAtom(a, CmpOp::kEq, AttrValue(int64_t{2}));
    p.AddAtom(a, CmpOp::kEq, AttrValue(int64_t{3}));
    EXPECT_FALSE(p.IsSatisfiable());
  }
  {
    AttributePredicate p;
    p.AddAtom(a, CmpOp::kGt, AttrValue(int64_t{1}));
    p.AddAtom(a, CmpOp::kLt, AttrValue(int64_t{2}));
    EXPECT_TRUE(p.IsSatisfiable());  // dense domain
  }
  EXPECT_TRUE(AttributePredicate().IsSatisfiable());
}

TEST(AttributePredicateTest, Entailment) {
  AttrId year = 1;
  AttributePredicate weak;  // year <= 2010
  weak.AddAtom(year, CmpOp::kLe, AttrValue(int64_t{2010}));
  AttributePredicate strong;  // year <= 2005
  strong.AddAtom(year, CmpOp::kLe, AttrValue(int64_t{2005}));
  EXPECT_TRUE(weak.EntailedBy(strong));
  EXPECT_FALSE(strong.EntailedBy(weak));
  // Equality requires identical constants.
  AttributePredicate eq1, eq2;
  eq1.AddAtom(year, CmpOp::kEq, AttrValue(int64_t{7}));
  eq2.AddAtom(year, CmpOp::kEq, AttrValue(int64_t{7}));
  EXPECT_TRUE(eq1.EntailedBy(eq2));
}

TEST(QueryBuilderTest, ValidatesStructure) {
  QueryBuilder b;
  QNodeId r = b.AddRoot("r", AttributePredicate());
  QNodeId p = b.AddPredicate(r, EdgeType::kDescendant, "p",
                             AttributePredicate());
  b.MarkOutput(r);
  // fs over a non-predicate-child variable must be rejected.
  b.SetStructural(p, Formula::Var(static_cast<int>(r)));
  EXPECT_FALSE(b.Build().ok());
  b.SetStructural(p, Formula::True());
  EXPECT_TRUE(b.Build().ok());
}

TEST(QueryBuilderTest, RequiresOutput) {
  QueryBuilder b;
  b.AddRoot("r", AttributePredicate());
  EXPECT_FALSE(b.Build().ok());
}

TEST(QueryBuilderTest, ExtendedPredicate) {
  QueryBuilder b;
  QNodeId r = b.AddRoot("r", AttributePredicate());
  QNodeId bb = b.AddBackbone(r, EdgeType::kDescendant, "b",
                             AttributePredicate());
  QNodeId p = b.AddPredicate(r, EdgeType::kDescendant, "p",
                             AttributePredicate());
  b.SetStructural(r, Formula::Not(Formula::Var(static_cast<int>(p))));
  b.MarkOutput(r);
  Gtpq q = b.Build().TakeValue();
  auto fext = q.ExtendedPredicate(r);
  // fext(r) = p_b & !p_p.
  auto vars = logic::CollectVars(fext);
  EXPECT_EQ(vars, (std::vector<int>{static_cast<int>(bb),
                                    static_cast<int>(p)}));
  EXPECT_FALSE(q.IsConjunctive());
  EXPECT_FALSE(q.IsUnionConjunctive());
}

TEST(QueryBuilderTest, ClassKinds) {
  QueryBuilder b;
  QNodeId r = b.AddRoot("r", AttributePredicate());
  QNodeId p1 = b.AddPredicate(r, EdgeType::kDescendant, "p1",
                              AttributePredicate());
  QNodeId p2 = b.AddPredicate(r, EdgeType::kDescendant, "p2",
                              AttributePredicate());
  b.MarkOutput(r);
  b.SetStructural(r, Formula::And(Formula::Var(static_cast<int>(p1)),
                                  Formula::Var(static_cast<int>(p2))));
  EXPECT_TRUE(b.Build()->IsConjunctive());
  b.SetStructural(r, Formula::Or(Formula::Var(static_cast<int>(p1)),
                                 Formula::Var(static_cast<int>(p2))));
  Gtpq q = b.Build().TakeValue();
  EXPECT_FALSE(q.IsConjunctive());
  EXPECT_TRUE(q.IsUnionConjunctive());
}

TEST(QueryParserTest, RoundTrip) {
  const char* text = R"(
# Example query
backbone root root *
backbone mid root ad
predicate pa mid pc
predicate pb mid ad
attr root label=3
attr pa year>=2000 year<=2010
attr pb name="alice"
fs mid = pa & !pb
output mid
)";
  auto q = ParseQuery(text);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->NumNodes(), 4u);
  EXPECT_EQ(q->outputs().size(), 2u);
  // Render + reparse must preserve structure.
  auto names = std::make_shared<AttrNames>();
  auto q1 = ParseQuery(text, names);
  ASSERT_TRUE(q1.ok());
  auto q2 = ParseQuery(q1->ToString(*names), names);
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  EXPECT_EQ(q2->NumNodes(), q1->NumNodes());
  EXPECT_EQ(q2->outputs(), q1->outputs());
  EXPECT_EQ(q2->ToString(*names), q1->ToString(*names));
}

// Query atoms read numbers as graph files do: an exponent makes a
// double, and a malformed value is an error rather than a prefix.
TEST(QueryParserTest, NumbersParseLikeGraphFiles) {
  auto names = std::make_shared<AttrNames>();
  auto q = ParseQuery("backbone a root *\nattr a x=1e+06 y<2.5\n", names);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const std::string rendered = q->ToString(*names);
  EXPECT_NE(rendered.find("x=1e+06"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("y<2.5"), std::string::npos) << rendered;
  for (const char* bad :
       {"x=12ab", "x=1.2.3", "x=1e", "x=99999999999999999999"}) {
    EXPECT_EQ(ParseQuery(std::string("backbone a root *\nattr a ") + bad +
                         "\n")
                  .status()
                  .code(),
              StatusCode::kParseError)
        << bad;
  }
}

TEST(QueryParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("backbone a nowhere ad *\n").ok());
  EXPECT_FALSE(ParseQuery("predicate a root\n").ok());  // pred root
  EXPECT_FALSE(ParseQuery("backbone a root *\nfs a = ghost\n").ok());
  EXPECT_FALSE(ParseQuery("backbone a root *\nattr a year?2000\n").ok());
  EXPECT_FALSE(ParseQuery("wibble\n").ok());
}

TEST(QueryGeneratorTest, ProducesValidQueries) {
  DataGraph g = SmallDag();
  int produced = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    QueryGenOptions o;
    o.num_nodes = 4;
    o.predicate_fraction = 0.4;
    o.disjunction_probability = 0.5;
    o.negation_probability = 0.3;
    o.pc_probability = 0.3;
    o.seed = seed;
    auto q = GenerateRandomQuery(g, o);
    if (!q.has_value()) continue;
    ++produced;
    EXPECT_TRUE(q->Validate().ok());
    EXPECT_EQ(q->NumNodes(), 4u);
  }
  EXPECT_GT(produced, 10);
}

TEST(GtpqTest, OrdersAndSubtree) {
  QueryBuilder b;
  QNodeId r = b.AddRoot("r", AttributePredicate());
  QNodeId a = b.AddBackbone(r, EdgeType::kDescendant, "a",
                            AttributePredicate());
  QNodeId c = b.AddBackbone(a, EdgeType::kChild, "c",
                            AttributePredicate());
  b.MarkOutput(c);
  Gtpq q = b.Build().TakeValue();
  EXPECT_EQ(q.TopDownOrder(), (std::vector<QNodeId>{r, a, c}));
  EXPECT_EQ(q.BottomUpOrder(), (std::vector<QNodeId>{c, a, r}));
  EXPECT_TRUE(q.IsAncestor(r, c));
  EXPECT_FALSE(q.IsAncestor(c, r));
  EXPECT_EQ(q.Subtree(a), (std::vector<QNodeId>{a, c}));
  EXPECT_EQ(q.DepthOf(c), 2u);
}

}  // namespace
}  // namespace gtpq

// ShardedOracle structural tests: shard cuts, shard ownership, the
// boundary, and agreement with a ground-truth closure on a graph whose
// cycle threads two shards. Point/set conformance of the decorator
// itself is covered by the spec-parameterized suite in
// reachability_conformance_test.cc.
#include <gtest/gtest.h>

#include "reachability/sharded_oracle.h"
#include "reachability/transitive_closure.h"

namespace gtpq {
namespace {

TEST(ShardedOracleTest, StructureAndBaseConformance) {
  // Four shards of five vertices: intra-shard chains in every shard,
  // cross edges, and the intra edge 4 -> 0, which closes a cycle
  // threading shards 0 and 3: 0 -> 1 -> 2 -> 15 -> 16 -> 4 -> 0.
  constexpr NodeId kNodes = 20;
  Digraph g(kNodes);
  for (NodeId base = 0; base < kNodes; base += 5) {
    g.AddEdge(base, base + 1);
    g.AddEdge(base + 1, base + 2);
    g.AddEdge(base + 3, base + 4);
  }
  for (const auto& [a, b] : {std::pair<NodeId, NodeId>{4, 7},
                             {9, 12}, {14, 17}, {2, 15}, {16, 4}, {4, 0}}) {
    g.AddEdge(a, b);
  }
  g.Finalize();

  ShardedOracleOptions options;
  options.num_shards = 4;
  options.inner_spec = "interval";
  ShardedOracle oracle(g, options);
  EXPECT_EQ(oracle.name(), "sharded:interval");
  EXPECT_EQ(oracle.NumShards(), 4u);
  for (size_t s = 0; s <= 4; ++s) EXPECT_EQ(oracle.shard_starts()[s], 5 * s);
  for (NodeId v = 0; v < kNodes; ++v) EXPECT_EQ(oracle.ShardOf(v), v / 5);
  EXPECT_FALSE(oracle.boundary_vertices().empty());

  const auto tc = TransitiveClosure::Build(g);
  for (NodeId a = 0; a < kNodes; ++a) {
    for (NodeId b = 0; b < kNodes; ++b) {
      ASSERT_EQ(oracle.Reaches(a, b), tc.Reaches(a, b))
          << "(" << a << ", " << b << ")";
    }
  }
}

}  // namespace
}  // namespace gtpq

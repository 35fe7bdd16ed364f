// Dynamic-update coverage: GraphDelta validation/atomicity, the
// delta-overlay oracle differentially against a rebuild-from-scratch
// golden closure (insert-heavy, delete-heavy, and compaction-triggering
// schedules), persistence of pending deltas, the update-file format,
// and the serving runtime's epoch snapshots — including the randomized
// differential at 1 and 8 threads and the concurrent
// ApplyUpdates()+EvaluateBatch() consistency check the TSan CI job
// runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"

#include "dynamic/delta_overlay.h"
#include "dynamic/graph_delta.h"
#include "dynamic/stream_gen.h"
#include "dynamic/update_io.h"
#include "graph/generators.h"
#include "query/query_generator.h"
#include "reachability/factory.h"
#include "reachability/transitive_closure.h"
#include "runtime/query_server.h"
#include "storage/index_io.h"
#include "tests/test_util.h"

namespace gtpq {
namespace {

using testing::MakeGraph;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "gtpq_update_" + name +
         std::string(storage::kIndexFileExtension);
}

UpdateBatch EdgeAdd(std::vector<EdgeRef> edges) {
  UpdateBatch b;
  b.add_edges = std::move(edges);
  return b;
}

UpdateBatch EdgeRemove(std::vector<EdgeRef> edges) {
  UpdateBatch b;
  b.remove_edges = std::move(edges);
  return b;
}

UpdateBatch NodeRemove(std::vector<NodeId> nodes) {
  UpdateBatch b;
  b.remove_nodes = std::move(nodes);
  return b;
}

/// Schedule shorthand over the shared generator (dynamic/stream_gen.h).
std::vector<UpdateBatch> GenerateStream(const DataGraph& base,
                                        size_t rounds, size_t ops,
                                        double del_ratio,
                                        uint64_t seed) {
  UpdateStreamOptions options;
  options.rounds = rounds;
  options.ops_per_round = ops;
  options.del_ratio = del_ratio;
  options.seed = seed;
  return GenerateUpdateStream(base, options);
}

void ExpectOracleMatchesGolden(const ReachabilityOracle& oracle,
                               const Digraph& golden_graph,
                               const std::string& context) {
  const TransitiveClosure golden = TransitiveClosure::Build(golden_graph);
  const size_t n = golden_graph.NumNodes();
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      ASSERT_EQ(oracle.Reaches(a, b), golden.Reaches(a, b))
          << context << ": " << oracle.name() << " disagrees on (" << a
          << ", " << b << ")";
    }
  }
}

// --------------------------------------------------- GraphDelta basics

TEST(GraphDeltaTest, ValidatesAndStaysAtomicOnRejection) {
  // 0 -> 1 -> 2
  DataGraph g = MakeGraph(3, {0, 1, 2}, {{0, 1}, {1, 2}});
  GraphDelta delta(g.NumNodes());

  // Duplicate of a base edge.
  EXPECT_EQ(delta.Apply(g.graph(), EdgeAdd({{0, 1}})).code(),
            StatusCode::kAlreadyExists);
  // Removal of an absent edge.
  EXPECT_EQ(delta.Apply(g.graph(), EdgeRemove({{2, 0}})).code(),
            StatusCode::kNotFound);
  // Out-of-range endpoint.
  EXPECT_EQ(delta.Apply(g.graph(), EdgeAdd({{0, 9}})).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(delta.Apply(g.graph(), NodeRemove({7})).code(),
            StatusCode::kOutOfRange);
  // A batch that fails halfway must leave the delta untouched.
  UpdateBatch mixed;
  mixed.add_edges = {{2, 0}, {2, 0}};  // second add duplicates the first
  EXPECT_EQ(delta.Apply(g.graph(), mixed).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.version(), 0u);

  // Valid compound batch: new node, edge into it, base edge removed.
  UpdateBatch ok;
  ok.add_nodes = {5};
  ok.add_edges = {{2, 3}};
  ok.remove_edges = {{0, 1}};
  ASSERT_TRUE(delta.Apply(g.graph(), ok).ok());
  EXPECT_EQ(delta.NumNodes(), 4u);
  EXPECT_EQ(delta.NumAddedEdges(), 1u);
  EXPECT_EQ(delta.NumRemovedEdges(), 1u);
  EXPECT_EQ(delta.version(), 1u);

  // Touching a removed vertex is rejected; removing it twice too.
  ASSERT_TRUE(delta.Apply(g.graph(), NodeRemove({1})).ok());
  EXPECT_EQ(delta.Apply(g.graph(), EdgeAdd({{0, 1}})).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(delta.Apply(g.graph(), NodeRemove({1})).code(),
            StatusCode::kFailedPrecondition);
}

TEST(GraphDeltaTest, MaterializesCombinedView) {
  DataGraph g = MakeGraph(3, {7, 8, 9}, {{0, 1}, {1, 2}});
  GraphDelta delta(g.NumNodes());
  UpdateBatch batch;
  batch.add_nodes = {42};
  batch.add_edges = {{2, 3}, {3, 0}};
  batch.remove_edges = {{0, 1}};
  ASSERT_TRUE(delta.Apply(g.graph(), batch).ok());

  const Digraph materialized = delta.MaterializeDigraph(g.graph());
  EXPECT_EQ(materialized.NumNodes(), 4u);
  EXPECT_FALSE(materialized.HasEdge(0, 1));
  EXPECT_TRUE(materialized.HasEdge(1, 2));
  EXPECT_TRUE(materialized.HasEdge(2, 3));
  EXPECT_TRUE(materialized.HasEdge(3, 0));

  const DataGraph data = delta.MaterializeDataGraph(g);
  EXPECT_EQ(data.NumNodes(), 4u);
  EXPECT_EQ(data.LabelOf(0), 7);
  EXPECT_EQ(data.LabelOf(3), 42);
  // Attribute namespace is shared, so interned ids stay stable.
  EXPECT_EQ(data.attr_names_ptr().get(), g.attr_names_ptr().get());

  // Vertex removal detaches and tombstones, but keeps the id space.
  ASSERT_TRUE(delta.Apply(g.graph(), NodeRemove({1})).ok());
  const DataGraph after = delta.MaterializeDataGraph(g);
  EXPECT_EQ(after.NumNodes(), 4u);
  EXPECT_EQ(after.LabelOf(1), kRemovedNodeLabel);
  EXPECT_EQ(after.OutNeighbors(1).size(), 0u);
  EXPECT_EQ(after.InNeighbors(1).size(), 0u);

  // Re-adding a removed base edge resurrects it.
  GraphDelta resurrect(g.NumNodes());
  ASSERT_TRUE(resurrect.Apply(g.graph(), EdgeRemove({{0, 1}})).ok());
  ASSERT_TRUE(resurrect.Apply(g.graph(), EdgeAdd({{0, 1}})).ok());
  EXPECT_TRUE(
      resurrect.MaterializeDigraph(g.graph()).HasEdge(0, 1));
  EXPECT_EQ(resurrect.NumAddedEdges(), 0u);
  EXPECT_EQ(resurrect.NumRemovedEdges(), 0u);
}

// delta: composes above sharded:, never beneath it: shard sub-indexes
// are built over transient induced-subgraph objects an overlay would
// dangle on. file: is rejected beneath delta: (compaction cannot
// rebuild from a file on a mutated graph).
TEST(DeltaSpecTest, RejectsUnservableCompositions) {
  DataGraph g = MakeGraph(3, {0, 1, 2}, {{0, 1}, {1, 2}});
  for (const char* spec :
       {"sharded:delta:contour", "delta:file:nowhere.gtpqidx",
        "cached:contour"}) {
    EXPECT_FALSE(IsValidReachabilitySpec(spec)) << spec;
    EXPECT_EQ(MakeReachabilityIndex(std::string_view(spec), g.graph()),
              nullptr)
        << spec;
  }
  EXPECT_TRUE(IsValidReachabilitySpec("delta:sharded:interval"));
}

// ------------------------------------------------ update file round-trip

TEST(UpdateIoTest, RoundTripsBatches) {
  std::vector<UpdateBatch> batches(2);
  batches[0].add_nodes = {3, -1};
  batches[0].add_edges = {{0, 5}, {5, 1}};
  batches[1].remove_edges = {{2, 4}};
  batches[1].remove_nodes = {7};

  std::stringstream stream;
  ASSERT_TRUE(SaveUpdateBatches(batches, &stream).ok());
  auto loaded = LoadUpdateBatches(&stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].add_nodes, batches[0].add_nodes);
  EXPECT_EQ((*loaded)[0].add_edges, batches[0].add_edges);
  EXPECT_EQ((*loaded)[1].remove_edges, batches[1].remove_edges);
  EXPECT_EQ((*loaded)[1].remove_nodes, batches[1].remove_nodes);

  std::stringstream bad("gtpq-updates v1\naddedge 1\n");
  EXPECT_FALSE(LoadUpdateBatches(&bad).ok());
  std::stringstream wrong_header("gtpq-graph v1\n");
  EXPECT_FALSE(LoadUpdateBatches(&wrong_header).ok());
}

// ------------------------------------- delta overlay differential suite

struct OverlayCase {
  const char* name;
  bool cyclic;
  double del_ratio;
  uint64_t seed;
};

class DeltaOverlayDifferentialTest
    : public ::testing::TestWithParam<OverlayCase> {};

TEST_P(DeltaOverlayDifferentialTest, MatchesRebuiltClosureAfterEachBatch) {
  const OverlayCase& test_case = GetParam();
  DataGraph g = test_case.cyclic
                    ? RandomDigraph({.num_nodes = 40,
                                     .avg_degree = 2.0,
                                     .num_labels = 5,
                                     .seed = test_case.seed})
                    : RandomDag({.num_nodes = 45,
                                 .avg_degree = 2.2,
                                 .num_labels = 5,
                                 .locality = 1.0,
                                 .seed = test_case.seed});
  const std::vector<UpdateBatch> stream =
      GenerateStream(g, /*rounds=*/10, /*ops=*/12, test_case.del_ratio,
                     test_case.seed * 31 + 5);

  auto inner = MakeReachabilityIndex(std::string_view("contour"),
                                     g.graph());
  ASSERT_NE(inner, nullptr);
  auto overlay = std::make_shared<const DeltaOverlayOracle>(
      std::shared_ptr<const ReachabilityOracle>(std::move(inner)),
      &g.graph());
  EXPECT_EQ(overlay->name(), "delta:contour");

  GraphDelta view(g.NumNodes());
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(view.Apply(g.graph(), stream[i]).ok());
    auto next = overlay->WithUpdates(stream[i]);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    overlay = next.TakeValue();
    ExpectOracleMatchesGolden(
        *overlay, view.MaterializeDigraph(g.graph()),
        std::string(test_case.name) + " batch " + std::to_string(i));
  }
}

TEST_P(DeltaOverlayDifferentialTest, CompactionPreservesAnswers) {
  const OverlayCase& test_case = GetParam();
  DataGraph g = RandomDag({.num_nodes = 35,
                           .avg_degree = 2.0,
                           .num_labels = 5,
                           .locality = 1.0,
                           .seed = test_case.seed});
  const std::vector<UpdateBatch> stream =
      GenerateStream(g, /*rounds=*/8, /*ops=*/10, test_case.del_ratio,
                     test_case.seed * 17 + 3);

  // A threshold low enough that the schedule crosses it repeatedly.
  DeltaOverlayOptions options;
  options.min_compact_ops = 16;
  options.compact_fraction = 0.0;
  auto inner =
      MakeReachabilityIndex(std::string_view("interval"), g.graph());
  ASSERT_NE(inner, nullptr);
  auto overlay = std::make_shared<const DeltaOverlayOracle>(
      std::shared_ptr<const ReachabilityOracle>(std::move(inner)),
      &g.graph(), options);

  GraphDelta view(g.NumNodes());
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(view.Apply(g.graph(), stream[i]).ok());
    auto next = overlay->WithUpdates(stream[i]);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    overlay = next.TakeValue();
    ASSERT_LT(overlay->PendingOps(), 16u + 10u);
    ExpectOracleMatchesGolden(*overlay,
                              view.MaterializeDigraph(g.graph()),
                              "compacting batch " + std::to_string(i));
  }
  EXPECT_GT(overlay->compactions(), 0u);

  // Manual compaction is answer-preserving too.
  auto compacted = overlay->Compact();
  ASSERT_TRUE(compacted.ok());
  EXPECT_EQ((*compacted)->PendingOps(), 0u);
  ExpectOracleMatchesGolden(**compacted,
                            view.MaterializeDigraph(g.graph()),
                            "manual compaction");
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, DeltaOverlayDifferentialTest,
    ::testing::Values(
        OverlayCase{"insert_heavy_dag", false, 0.05, 3},
        OverlayCase{"mixed_dag", false, 0.4, 11},
        OverlayCase{"delete_heavy_dag", false, 0.8, 19},
        OverlayCase{"mixed_cyclic", true, 0.4, 27},
        OverlayCase{"delete_heavy_cyclic", true, 0.8, 35}),
    [](const ::testing::TestParamInfo<OverlayCase>& info) {
      return info.param.name;
    });

// ------------------------------- delta-aware set reachability probes

/// Golden any-of helper over the materialized combined view.
bool GoldenAnyReaches(const TransitiveClosure& golden, NodeId from,
                      std::span<const NodeId> members, bool from_set) {
  for (NodeId m : members) {
    if (from_set ? golden.Reaches(m, from) : golden.Reaches(from, m)) {
      return true;
    }
  }
  return false;
}

TEST(DeltaSetProbeTest, SetProbesMatchGoldenAcrossRegimes) {
  // 0.0 = insert-only, 1.0 = delete-only, 0.5 = mixed: each schedule
  // pins the overlay in one incremental regime (no compaction at these
  // op counts), so every proof path of the native probes is covered.
  for (const double del_ratio : {0.0, 1.0, 0.5}) {
    DataGraph g = RandomDag({.num_nodes = 40,
                             .avg_degree = 2.2,
                             .num_labels = 5,
                             .locality = 1.0,
                             .seed = 51});
    const std::vector<UpdateBatch> stream = GenerateStream(
        g, /*rounds=*/3, /*ops=*/10, del_ratio,
        /*seed=*/73 + static_cast<uint64_t>(del_ratio * 10));

    auto inner = MakeReachabilityIndex(std::string_view("contour"),
                                       g.graph());
    ASSERT_NE(inner, nullptr);
    auto overlay = std::make_shared<const DeltaOverlayOracle>(
        std::shared_ptr<const ReachabilityOracle>(std::move(inner)),
        &g.graph());
    GraphDelta view(g.NumNodes());
    for (const UpdateBatch& batch : stream) {
      ASSERT_TRUE(view.Apply(g.graph(), batch).ok());
      auto next = overlay->WithUpdates(batch);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      overlay = next.TakeValue();
    }
    ASSERT_EQ(overlay->compactions(), 0u);
    const Digraph combined = view.MaterializeDigraph(g.graph());
    const TransitiveClosure golden = TransitiveClosure::Build(combined);
    const size_t n = combined.NumNodes();

    Rng rng(977);
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<NodeId> members;
      for (size_t k = 0; k < 4; ++k) {
        members.push_back(static_cast<NodeId>(rng.NextBounded(n)));
      }
      const auto targets = overlay->SummarizeTargets(members);
      const auto sources = overlay->SummarizeSources(members);
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(overlay->ReachesSet(v, *targets),
                  GoldenAnyReaches(golden, v, members, false))
            << "del_ratio " << del_ratio << " trial " << trial
            << " ReachesSet(" << v << ")";
        EXPECT_EQ(overlay->SetReaches(*sources, v),
                  GoldenAnyReaches(golden, v, members, true))
            << "del_ratio " << del_ratio << " trial " << trial
            << " SetReaches(" << v << ")";
      }
      // SuccessorsAmong agrees with golden membership indices.
      const auto prepared = overlay->PrepareSuccessorTargets(members);
      for (NodeId v = 0; v < n; ++v) {
        std::vector<uint32_t> got, want;
        overlay->SuccessorsAmong(v, *prepared, &got);
        for (uint32_t i = 0; i < members.size(); ++i) {
          if (golden.Reaches(v, members[i])) want.push_back(i);
        }
        EXPECT_EQ(got, want) << "SuccessorsAmong(" << v << ")";
      }
    }
  }
}

// The point of the native probes: where a regime proof applies, one
// set probe costs ONE IndexStats query (one batched inner probe), not
// one point query per member as the pairwise defaults do.
TEST(DeltaSetProbeTest, NativeProbesCountOneQueryWhereProofsApply) {
  // 0 -> 1 -> 2 -> 3 -> 4, plus isolated 5.
  DataGraph g = MakeGraph(6, {0, 1, 2, 3, 4, 5},
                          {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  auto inner =
      MakeReachabilityIndex(std::string_view("contour"), g.graph());
  ASSERT_NE(inner, nullptr);
  auto overlay = std::make_shared<const DeltaOverlayOracle>(
      std::shared_ptr<const ReachabilityOracle>(std::move(inner)),
      &g.graph());

  const std::vector<NodeId> members = {2, 3, 4};
  {
    // Empty delta: pure delegation. The pairwise default would issue
    // |members| point queries for this negative probe.
    const auto targets = overlay->SummarizeTargets(members);
    overlay->stats().Reset();
    EXPECT_FALSE(overlay->ReachesSet(5, *targets));
    EXPECT_EQ(overlay->stats().queries, 1u);
    overlay->stats().Reset();
    EXPECT_TRUE(overlay->ReachesSet(0, *targets));
    EXPECT_EQ(overlay->stats().queries, 1u);
  }

  // Insert-only delta: positive inner answers are proofs.
  auto next = overlay->WithUpdates(EdgeAdd({{5, 0}}));
  ASSERT_TRUE(next.ok());
  overlay = next.TakeValue();
  {
    const auto targets = overlay->SummarizeTargets(members);
    overlay->stats().Reset();
    EXPECT_TRUE(overlay->ReachesSet(0, *targets));  // base path proof
    EXPECT_EQ(overlay->stats().queries, 1u);
    // Via the added edge the probe needs the fallback — correct, and
    // costs extra point queries.
    overlay->stats().Reset();
    EXPECT_TRUE(overlay->ReachesSet(5, *targets));
    EXPECT_GT(overlay->stats().queries, 1u);

    const auto sources = overlay->SummarizeSources(members);
    overlay->stats().Reset();
    EXPECT_TRUE(overlay->SetReaches(*sources, 4));  // base path proof
    EXPECT_EQ(overlay->stats().queries, 1u);
  }

  // Delete-only delta: negative inner answers are proofs.
  auto deleted = std::make_shared<const DeltaOverlayOracle>(
      std::shared_ptr<const ReachabilityOracle>(MakeReachabilityIndex(
          std::string_view("contour"), g.graph())),
      &g.graph());
  next = deleted->WithUpdates(EdgeRemove({{2, 3}}));
  ASSERT_TRUE(next.ok());
  deleted = next.TakeValue();
  {
    const std::vector<NodeId> unreachable = {0, 1};
    const auto targets = deleted->SummarizeTargets(unreachable);
    deleted->stats().Reset();
    EXPECT_FALSE(deleted->ReachesSet(3, *targets));  // negative proof
    EXPECT_EQ(deleted->stats().queries, 1u);
    deleted->stats().Reset();
    // A positive inner answer needs pairwise verification against the
    // removed edge — and (0 -> {3, 4}) is now genuinely severed.
    const std::vector<NodeId> beyond_cut = {3, 4};
    const auto cut = deleted->SummarizeTargets(beyond_cut);
    EXPECT_FALSE(deleted->ReachesSet(0, *cut));
    EXPECT_GT(deleted->stats().queries, 1u);
  }
}

// Compaction folds a removal into the rebuilt base as a plain isolated
// vertex; the retired list is what keeps the id dead afterwards — and
// it must survive save/load, so `gteactl apply` runs agree with the
// serving runtime.
TEST(DeltaOverlayTest, RetiredVerticesStayDeadAcrossCompactionAndReload) {
  DataGraph g = MakeGraph(4, {0, 1, 2, 3}, {{0, 1}, {1, 2}, {2, 3}});
  auto inner =
      MakeReachabilityIndex(std::string_view("contour"), g.graph());
  ASSERT_NE(inner, nullptr);
  auto overlay = std::make_shared<const DeltaOverlayOracle>(
      std::shared_ptr<const ReachabilityOracle>(std::move(inner)),
      &g.graph());

  auto removed = overlay->WithUpdates(NodeRemove({2}));
  ASSERT_TRUE(removed.ok());
  auto compacted = (*removed)->Compact();
  ASSERT_TRUE(compacted.ok());
  EXPECT_EQ((*compacted)->PendingOps(), 0u);
  EXPECT_EQ((*compacted)->retired_nodes(), std::vector<NodeId>{2});
  // Every kind of op at a retired vertex is rejected, with the same
  // check the serving factory applies (TombstonesStayDeadAcrossBatches).
  for (const UpdateBatch& batch :
       {EdgeAdd({{1, 2}}), EdgeRemove({{2, 3}}), NodeRemove({2})}) {
    EXPECT_EQ((*compacted)->WithUpdates(batch).status().code(),
              StatusCode::kFailedPrecondition);
  }

  const std::string path = TempPath("retired");
  ASSERT_TRUE(storage::SaveReachabilityIndex(
                  **compacted, (*compacted)->base_graph(), path)
                  .ok());
  auto loaded =
      storage::LoadReachabilityIndex(path, (*compacted)->base_graph());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto* reloaded =
      dynamic_cast<const DeltaOverlayOracle*>(loaded->get());
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->retired_nodes(), std::vector<NodeId>{2});
  EXPECT_EQ(reloaded->WithUpdates(EdgeAdd({{1, 2}})).status().code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// ----------------------------------------- pending-delta persistence

TEST(DeltaPersistenceTest, RoundTripsPendingDelta) {
  DataGraph g = RandomDag({.num_nodes = 30,
                           .avg_degree = 2.0,
                           .num_labels = 4,
                           .locality = 1.0,
                           .seed = 9});
  const std::vector<UpdateBatch> stream =
      GenerateStream(g, /*rounds=*/4, /*ops=*/8, /*del_ratio=*/0.4, 77);

  auto inner =
      MakeReachabilityIndex(std::string_view("contour"), g.graph());
  ASSERT_NE(inner, nullptr);
  auto overlay = std::make_shared<const DeltaOverlayOracle>(
      std::shared_ptr<const ReachabilityOracle>(std::move(inner)),
      &g.graph());
  GraphDelta view(g.NumNodes());
  for (const UpdateBatch& batch : stream) {
    ASSERT_TRUE(view.Apply(g.graph(), batch).ok());
    auto next = overlay->WithUpdates(batch);
    ASSERT_TRUE(next.ok());
    overlay = next.TakeValue();
  }
  ASSERT_GT(overlay->PendingOps(), 0u);

  // The file is stamped with the *updated* graph's fingerprint: that is
  // the graph a loaded snapshot serves.
  const Digraph updated = view.MaterializeDigraph(g.graph());
  const std::string path = TempPath("pending");
  ASSERT_TRUE(
      storage::SaveReachabilityIndex(*overlay, updated, path).ok());

  auto loaded = storage::LoadReachabilityIndex(path, updated);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->name(), "delta:contour");
  const auto* reloaded =
      dynamic_cast<const DeltaOverlayOracle*>(loaded->get());
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->PendingOps(), overlay->PendingOps());
  ExpectOracleMatchesGolden(*reloaded, updated, "reloaded pending delta");

  // The wrong-graph guard still applies.
  EXPECT_FALSE(storage::LoadReachabilityIndex(path, g.graph()).ok());
  std::remove(path.c_str());
}

// ------------------------------------------- serving runtime updates

std::vector<Gtpq> MakeQueryBatch(const DataGraph& g, size_t count,
                                 uint64_t seed_base) {
  std::vector<Gtpq> queries;
  for (uint64_t seed = seed_base;
       queries.size() < count && seed < seed_base + 40 * count; ++seed) {
    QueryGenOptions qo;
    qo.num_nodes = 4 + seed % 3;
    qo.pc_probability = 0.25;
    qo.predicate_fraction = 0.3;
    qo.output_fraction = 0.8;
    qo.seed = seed * 29 + 1;
    auto q = GenerateRandomQueryWithRetry(g, qo);
    if (q.has_value()) queries.push_back(std::move(*q));
  }
  return queries;
}

class QueryServerUpdateTest : public ::testing::TestWithParam<size_t> {};

TEST_P(QueryServerUpdateTest, MatchesRebuiltEngineAfterEachBatch) {
  const size_t threads = GetParam();
  // "naive" exercises the non-gtea full-rebuild path of ApplyUpdates;
  // "gtea" takes the incremental delta-overlay path.
  for (const char* spec : {"gtea", "naive"}) {
    DataGraph g = RandomDag({.num_nodes = 60,
                             .avg_degree = 2.2,
                             .num_labels = 6,
                             .locality = 1.0,
                             .seed = 13});
    const std::vector<Gtpq> queries = MakeQueryBatch(g, 12, 500);
    ASSERT_GE(queries.size(), 6u) << "generator starved";
    // Delete-heavy enough to exercise the removal regimes, and a
    // compaction threshold the schedule crosses.
    const std::vector<UpdateBatch> stream =
        GenerateStream(g, /*rounds=*/6, /*ops=*/10, /*del_ratio=*/0.5, 41);

    QueryServerOptions options;
    options.num_threads = threads;
    options.engine_spec = spec;
    options.delta_options.min_compact_ops = 24;
    options.delta_options.compact_fraction = 0.0;
    QueryServer server(g, options);

    GraphDelta view(g.NumNodes());
    for (size_t i = 0; i < stream.size(); ++i) {
      ASSERT_TRUE(view.Apply(g.graph(), stream[i]).ok());
      ASSERT_TRUE(server.ApplyUpdates(stream[i]).ok());
      EXPECT_EQ(server.epoch(), i + 1);

      // Rebuild-from-scratch golden: a fresh sequential engine over the
      // materialized graph.
      const DataGraph updated = view.MaterializeDataGraph(g);
      auto golden_factory = SharedEngineFactory::Make("gtea", updated);
      ASSERT_NE(golden_factory, nullptr);
      auto golden = golden_factory->Create();

      const std::vector<QueryResult> results =
          server.EvaluateBatch(queries);
      for (size_t q = 0; q < queries.size(); ++q) {
        ASSERT_EQ(results[q], golden->Evaluate(queries[q]))
            << spec << " at " << threads << " threads, batch " << i
            << ", query " << q;
      }
    }
  }
}

TEST_P(QueryServerUpdateTest, RejectsInvalidBatchesUnchanged) {
  const size_t threads = GetParam();
  DataGraph g = MakeGraph(3, {0, 1, 2}, {{0, 1}, {1, 2}});
  QueryServer server(g, {.num_threads = threads});
  const std::vector<Gtpq> queries = MakeQueryBatch(g, 4, 900);
  const std::vector<QueryResult> before = server.EvaluateBatch(queries);

  EXPECT_EQ(server.ApplyUpdates(EdgeAdd({{0, 1}})).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(server.ApplyUpdates(EdgeRemove({{2, 0}})).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(server.epoch(), 0u);
  EXPECT_EQ(server.EvaluateBatch(queries), before);
}

// A removed id must stay dead for the rest of the server's life — even
// though a materialized snapshot shows it as a plain isolated vertex,
// and even after the gtea overlay compacted the removal away. Both the
// incremental path (gtea, compacting every batch) and the full-rebuild
// path (naive) must enforce it identically.
TEST_P(QueryServerUpdateTest, TombstonesStayDeadAcrossBatches) {
  const size_t threads = GetParam();
  for (const char* spec : {"gtea", "naive"}) {
    DataGraph g = MakeGraph(4, {0, 1, 2, 3}, {{0, 1}, {1, 2}, {2, 3}});
    QueryServerOptions options;
    options.num_threads = threads;
    options.engine_spec = spec;
    options.delta_options.min_compact_ops = 1;
    options.delta_options.compact_fraction = 0.0;
    QueryServer server(g, options);
    ASSERT_TRUE(server.ApplyUpdates(NodeRemove({2})).ok());
    EXPECT_EQ(server.ApplyUpdates(EdgeAdd({{1, 2}})).code(),
              StatusCode::kFailedPrecondition)
        << spec;
    EXPECT_EQ(server.ApplyUpdates(EdgeAdd({{2, 3}})).code(),
              StatusCode::kFailedPrecondition)
        << spec;
    EXPECT_EQ(server.ApplyUpdates(EdgeRemove({{2, 3}})).code(),
              StatusCode::kFailedPrecondition)
        << spec;
    EXPECT_EQ(server.ApplyUpdates(NodeRemove({2})).code(),
              StatusCode::kFailedPrecondition)
        << spec;
    EXPECT_EQ(server.epoch(), 1u) << spec;
  }

  // The serving name tracks the live snapshot's engines: updates wrap
  // the gtea oracle in the delta overlay.
  DataGraph g = MakeGraph(3, {0, 1, 2}, {{0, 1}, {1, 2}});
  QueryServer server(g, {.num_threads = threads});
  EXPECT_EQ(server.engine_name(), "gtea[contour]");
  ASSERT_TRUE(server.ApplyUpdates(EdgeAdd({{0, 2}})).ok());
  EXPECT_EQ(server.engine_name(), "gtea[delta:contour]");
}

INSTANTIATE_TEST_SUITE_P(Threads, QueryServerUpdateTest,
                         ::testing::Values(1u, 8u),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "threads_" +
                                  std::to_string(info.param);
                         });

// Concurrent writers and readers: while one thread streams update
// batches through ApplyUpdates, reader threads push query batches. A
// batch pins the snapshot current at entry, so every result vector must
// equal the golden answers of exactly one epoch — never a mix. (This is
// the test the TSan CI job runs against the snapshot machinery.)
TEST(SnapshotConsistencyTest, ConcurrentUpdatesAndBatchesSeeOneEpoch) {
  DataGraph g = RandomDag({.num_nodes = 50,
                           .avg_degree = 2.2,
                           .num_labels = 5,
                           .locality = 1.0,
                           .seed = 23});
  const std::vector<Gtpq> queries = MakeQueryBatch(g, 8, 1200);
  ASSERT_GE(queries.size(), 4u) << "generator starved";
  const std::vector<UpdateBatch> stream =
      GenerateStream(g, /*rounds=*/5, /*ops=*/8, /*del_ratio=*/0.4, 61);

  // Golden result vectors per epoch, computed sequentially up front.
  std::vector<std::vector<QueryResult>> expected;
  GraphDelta view(g.NumNodes());
  {
    auto factory = SharedEngineFactory::Make("gtea", g);
    ASSERT_NE(factory, nullptr);
    auto engine = factory->Create();
    std::vector<QueryResult> epoch0;
    for (const Gtpq& q : queries) epoch0.push_back(engine->Evaluate(q));
    expected.push_back(std::move(epoch0));
  }
  std::vector<DataGraph> epoch_graphs;  // keep alive for the factories
  for (const UpdateBatch& batch : stream) {
    ASSERT_TRUE(view.Apply(g.graph(), batch).ok());
    epoch_graphs.push_back(view.MaterializeDataGraph(g));
    auto factory = SharedEngineFactory::Make("gtea", epoch_graphs.back());
    ASSERT_NE(factory, nullptr);
    auto engine = factory->Create();
    std::vector<QueryResult> answers;
    for (const Gtpq& q : queries) answers.push_back(engine->Evaluate(q));
    expected.push_back(std::move(answers));
  }

  QueryServer server(g, {.num_threads = 4});
  std::thread updater([&] {
    for (const UpdateBatch& batch : stream) {
      ASSERT_TRUE(server.ApplyUpdates(batch).ok());
      // Let readers interleave between epochs.
      server.EvaluateBatch(std::span<const Gtpq>(queries.data(), 2));
    }
  });
  std::vector<std::thread> readers;
  for (int reader = 0; reader < 2; ++reader) {
    readers.emplace_back([&] {
      for (int round = 0; round < 12; ++round) {
        const std::vector<QueryResult> results =
            server.EvaluateBatch(queries);
        const bool matches_one_epoch =
            std::find(expected.begin(), expected.end(), results) !=
            expected.end();
        ASSERT_TRUE(matches_one_epoch)
            << "batch result matches no single epoch (round " << round
            << ")";
      }
    });
  }
  updater.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(server.epoch(), stream.size());
  // Once quiescent, the server serves exactly the final epoch.
  EXPECT_EQ(server.EvaluateBatch(queries), expected.back());
}

}  // namespace
}  // namespace gtpq

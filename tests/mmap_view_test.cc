// Zero-copy serving suite: for every factory-constructible spec, an
// index loaded through the mmap view loader (mmap:<path>, borrowing
// flat arrays straight from a read-only shared file mapping) must be
// probe-for-probe identical to the same file loaded onto the heap
// (file:<path>); the mapping must actually be MAP_SHARED | PROT_READ;
// several engines/threads must be able to serve off one mapped index
// concurrently (ASan/TSan jobs run this file); and an epoch chain of
// delta-overlay snapshots must layer over the immutable mapped view the
// same way it layers over a built index.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/engines.h"
#include "dynamic/delta_overlay.h"
#include "graph/generators.h"
#include "query/query_generator.h"
#include "reachability/factory.h"
#include "reachability/transitive_closure.h"
#include "runtime/engine_factory.h"
#include "storage/index_io.h"
#include "tests/test_util.h"

namespace gtpq {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "gtpq_mmap_" + name +
         std::string(storage::kIndexFileExtension);
}

DataGraph TestDag(uint64_t seed = 3) {
  return RandomDag({.num_nodes = 60,
                    .avg_degree = 2.5,
                    .num_labels = 5,
                    .locality = 1.0,
                    .seed = seed});
}

DataGraph TestDigraph(uint64_t seed = 5) {
  return RandomDigraph(
      {.num_nodes = 50, .avg_degree = 2.0, .num_labels = 5, .seed = seed});
}

// ------------------------------------------- heap vs mmap differential

class MmapDifferentialTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(MmapDifferentialTest, ViewLoadAnswersExactlyLikeHeapLoad) {
  for (bool cyclic : {false, true}) {
    const DataGraph g = cyclic ? TestDigraph() : TestDag();
    auto built =
        MakeReachabilityIndex(std::string_view(GetParam()), g.graph());
    ASSERT_NE(built, nullptr) << GetParam();
    const std::string path = TempPath("diff");
    ASSERT_TRUE(
        storage::SaveReachabilityIndex(*built, g.graph(), path).ok());

    auto heap = storage::LoadReachabilityIndex(path, g.graph());
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    auto view = storage::LoadReachabilityIndexView(path, g.graph());
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ((*view)->name(), GetParam());

    // Probe-for-probe identity on every pair, both against each other
    // and against the golden closure.
    const auto tc = TransitiveClosure::Build(g.graph());
    for (NodeId a = 0; a < g.NumNodes(); ++a) {
      for (NodeId b = 0; b < g.NumNodes(); ++b) {
        const bool expected = tc.Reaches(a, b);
        ASSERT_EQ((*heap)->Reaches(a, b), expected)
            << GetParam() << " heap (" << a << ", " << b << ")";
        ASSERT_EQ((*view)->Reaches(a, b), expected)
            << GetParam() << " mmap (" << a << ", " << b << ")";
      }
    }
    // The set API GTEA consumes, on a fixed member set.
    std::vector<NodeId> members;
    for (NodeId v = 0; v < g.NumNodes(); v += 3) members.push_back(v);
    auto heap_targets = (*heap)->SummarizeTargets(members);
    auto view_targets = (*view)->SummarizeTargets(members);
    auto heap_sources = (*heap)->SummarizeSources(members);
    auto view_sources = (*view)->SummarizeSources(members);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      ASSERT_EQ((*view)->ReachesSet(v, *view_targets),
                (*heap)->ReachesSet(v, *heap_targets))
          << GetParam();
      ASSERT_EQ((*view)->SetReaches(*view_sources, v),
                (*heap)->SetReaches(*heap_sources, v))
          << GetParam();
    }
    std::remove(path.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecs, MmapDifferentialTest,
    ::testing::ValuesIn(AllReachabilitySpecs()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), ':', '_');
      return name;
    });

// ----------------------------------------------- factory spec plumbing

TEST(MmapSpecTest, FactoryServesTheMappedIndexUnderTheSameRules) {
  const DataGraph g = TestDag();
  auto built =
      MakeReachabilityIndex(std::string_view("contour"), g.graph());
  const std::string path = TempPath("spec");
  ASSERT_TRUE(
      storage::SaveReachabilityIndex(*built, g.graph(), path).ok());
  const std::string spec = "mmap:" + path;

  EXPECT_TRUE(IsValidReachabilitySpec(spec));
  EXPECT_FALSE(IsValidReachabilitySpec("mmap:" + path + ".missing"));
  // Same composition rule as file:: no mmap beneath sharded: (the
  // fingerprint covers the whole graph, not a shard subgraph).
  EXPECT_FALSE(IsValidReachabilitySpec("sharded:" + spec));
  EXPECT_EQ(MakeReachabilityIndex(std::string_view("sharded:" + spec),
                                  g.graph()),
            nullptr);

  auto oracle = MakeReachabilityIndex(std::string_view(spec), g.graph());
  ASSERT_NE(oracle, nullptr);
  EXPECT_EQ(oracle->name(), "contour");
  const auto tc = TransitiveClosure::Build(g.graph());
  for (NodeId a = 0; a < g.NumNodes(); ++a) {
    for (NodeId b = 0; b < g.NumNodes(); ++b) {
      ASSERT_EQ(oracle->Reaches(a, b), tc.Reaches(a, b));
    }
  }

  // The fingerprint guard holds for the mmap loader too.
  const DataGraph other = TestDag(/*seed=*/77);
  EXPECT_EQ(MakeReachabilityIndex(std::string_view(spec), other.graph()),
            nullptr);
  std::remove(path.c_str());
}

#if defined(__linux__)
TEST(MmapSpecTest, MappingIsSharedAndReadOnly) {
  const DataGraph g = TestDag();
  auto built =
      MakeReachabilityIndex(std::string_view("interval"), g.graph());
  const std::string path = TempPath("maps");
  ASSERT_TRUE(
      storage::SaveReachabilityIndex(*built, g.graph(), path).ok());

  auto view = storage::LoadReachabilityIndexView(path, g.graph());
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  // /proc/self/maps must list the index file as "r--s": PROT_READ with
  // no write/exec, MAP_SHARED — the property that lets N server
  // processes mapping the same file reference one set of physical
  // pages.
  std::ifstream maps("/proc/self/maps");
  ASSERT_TRUE(maps.good());
  bool found = false;
  std::string line;
  while (std::getline(maps, line)) {
    if (line.find(path) == std::string::npos) continue;
    found = true;
    EXPECT_NE(line.find(" r--s"), std::string::npos) << line;
  }
  EXPECT_TRUE(found) << "no mapping of " << path << " in /proc/self/maps";

  // The mapping outlives a rename over the path (inode pinned) — the
  // invariant `gteactl apply`'s atomic re-save relies on.
  const std::string replacement = path + ".new";
  ASSERT_TRUE(storage::SaveReachabilityIndex(*built, g.graph(),
                                             replacement)
                  .ok());
  ASSERT_EQ(std::rename(replacement.c_str(), path.c_str()), 0);
  const auto tc = TransitiveClosure::Build(g.graph());
  for (NodeId a = 0; a < g.NumNodes(); a += 7) {
    for (NodeId b = 0; b < g.NumNodes(); ++b) {
      ASSERT_EQ((*view)->Reaches(a, b), tc.Reaches(a, b));
    }
  }
  std::remove(path.c_str());
}
#endif  // __linux__

// ------------------------------------------------- shared-mapping serving

TEST(MmapSharingTest, TwoEngineFactoriesServeOffOneSavedIndex) {
  const DataGraph g = TestDag(/*seed=*/31);
  auto built = MakeReachabilityIndex(std::string_view("sharded:interval"),
                                     g.graph());
  const std::string path = TempPath("sharing");
  ASSERT_TRUE(
      storage::SaveReachabilityIndex(*built, g.graph(), path).ok());

  // Two independent QueryServer-style stacks (each SharedEngineFactory
  // is what a NetServer's runtime stamps its workers from), both
  // serving the same .gtpqidx through the zero-copy loader.
  auto factory_a = SharedEngineFactory::Make("gtea:mmap:" + path, g);
  auto factory_b = SharedEngineFactory::Make("gtea:mmap:" + path, g);
  ASSERT_NE(factory_a, nullptr);
  ASSERT_NE(factory_b, nullptr);
  auto worker_a = factory_a->Create();
  auto worker_b = factory_b->Create();
  ASSERT_NE(worker_a, nullptr);
  ASSERT_NE(worker_b, nullptr);

  BruteForceEngine naive(g);
  int evaluated = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    QueryGenOptions qo;
    qo.num_nodes = 5;
    qo.pc_probability = 0.3;
    qo.output_fraction = 0.7;
    qo.seed = seed * 17 + 3;
    auto q = GenerateRandomQueryWithRetry(g, qo);
    if (!q.has_value()) continue;
    ++evaluated;
    const auto expected = naive.Evaluate(*q);
    ASSERT_EQ(worker_a->Evaluate(*q), expected) << "seed " << seed;
    ASSERT_EQ(worker_b->Evaluate(*q), expected) << "seed " << seed;
  }
  EXPECT_GT(evaluated, 3);
  std::remove(path.c_str());
}

TEST(MmapSharingTest, ConcurrentProbesOverOneMappedOracle) {
  const DataGraph g = TestDigraph(/*seed=*/9);
  auto built =
      MakeReachabilityIndex(std::string_view("three_hop"), g.graph());
  const std::string path = TempPath("threads");
  ASSERT_TRUE(
      storage::SaveReachabilityIndex(*built, g.graph(), path).ok());
  auto view = storage::LoadReachabilityIndexView(path, g.graph());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const ReachabilityOracle& oracle = **view;
  const auto tc = TransitiveClosure::Build(g.graph());

  // One mapped oracle, many probing threads: the borrowed views are
  // immutable and the per-thread stats slots keep counters private, so
  // this must be race-free under TSan.
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      for (NodeId a = static_cast<NodeId>(t); a < g.NumNodes(); a += 4) {
        for (NodeId b = 0; b < g.NumNodes(); ++b) {
          if (oracle.Reaches(a, b) != tc.Reaches(a, b)) ++mismatches[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << t;
  std::remove(path.c_str());
}

// ------------------------------------------- delta epochs over the view

TEST(MmapDeltaTest, EpochSnapshotsLayerOverTheImmutableMapping) {
  const DataGraph g = TestDag(/*seed=*/41);
  auto built =
      MakeReachabilityIndex(std::string_view("contour"), g.graph());
  const std::string path = TempPath("delta");
  ASSERT_TRUE(
      storage::SaveReachabilityIndex(*built, g.graph(), path).ok());
  auto view = storage::LoadReachabilityIndexView(path, g.graph());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  std::shared_ptr<const ReachabilityOracle> mapped(view.TakeValue());

  // Live updates over a served mmap index: the overlay mutates nothing
  // under the mapping — the delta layers above it, exactly as over a
  // built index.
  auto overlay = std::make_shared<const DeltaOverlayOracle>(
      mapped, &g.graph());
  // Connect two nodes with no path between them yet.
  NodeId from = kInvalidNode, to = kInvalidNode;
  for (NodeId a = 0; a < g.NumNodes() && from == kInvalidNode; ++a) {
    for (NodeId b = 0; b < g.NumNodes(); ++b) {
      if (a != b && !mapped->Reaches(a, b) && !mapped->Reaches(b, a)) {
        from = a;
        to = b;
        break;
      }
    }
  }
  ASSERT_NE(from, kInvalidNode);
  UpdateBatch batch;
  batch.add_edges.push_back(EdgeRef{from, to});
  auto next = overlay->WithUpdates(batch);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_TRUE((*next)->Reaches(from, to));
  // The old snapshot and the base mapping still answer the old truth.
  EXPECT_FALSE(overlay->Reaches(from, to));
  EXPECT_FALSE(mapped->Reaches(from, to));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gtpq

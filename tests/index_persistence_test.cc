// Persistence suite for the storage layer: every factory-constructible
// spec (base backends and the sharded: decorator over each) must
// round-trip through SaveReachabilityIndex / LoadReachabilityIndex and
// still agree with the materialized closure on the full point + set
// API; corrupted, truncated, version-skewed, and wrong-graph files must
// be rejected with clean Status errors, never crashes; the factory's
// "file:<path>" spec must serve a loaded index through the same seams
// (gtea:file:..., SharedEngineFactory) a built index uses; and a save
// killed midway must leave the previous file loadable.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "baselines/engines.h"
#include "cluster/partition_map.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/gtea.h"
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
  return ::testing::TempDir() + "gtpq_" + name +
         std::string(storage::kIndexFileExtension);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
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

// ---------------------------------------------------------- round trip

class PersistenceRoundTripTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(PersistenceRoundTripTest, SavedIndexAnswersLikeGroundTruth) {
  for (bool cyclic : {false, true}) {
    const DataGraph g = cyclic ? TestDigraph() : TestDag();
    auto built =
        MakeReachabilityIndex(std::string_view(GetParam()), g.graph());
    ASSERT_NE(built, nullptr) << GetParam();

    const std::string path = TempPath("roundtrip");
    ASSERT_TRUE(storage::SaveReachabilityIndex(*built, g.graph(), path)
                    .ok());
    auto loaded = storage::LoadReachabilityIndex(path, g.graph());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const auto& oracle = **loaded;
    EXPECT_EQ(oracle.name(), GetParam());

    // Full point-probe agreement with the golden closure...
    const auto tc = TransitiveClosure::Build(g.graph());
    for (NodeId a = 0; a < g.NumNodes(); ++a) {
      for (NodeId b = 0; b < g.NumNodes(); ++b) {
        ASSERT_EQ(oracle.Reaches(a, b), tc.Reaches(a, b))
            << GetParam() << (cyclic ? " cyclic" : " dag") << " ("
            << a << ", " << b << ")";
      }
    }
    // ...and the set API GTEA consumes, on a random member set.
    Rng rng(11);
    std::vector<NodeId> members;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (rng.NextBounded(3) == 0) members.push_back(v);
    }
    if (members.empty()) members.push_back(0);
    auto targets = oracle.SummarizeTargets(members);
    auto sources = oracle.SummarizeSources(members);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      bool down = false, up = false;
      for (NodeId m : members) {
        down = down || tc.Reaches(v, m);
        up = up || tc.Reaches(m, v);
      }
      ASSERT_EQ(oracle.ReachesSet(v, *targets), down) << GetParam();
      ASSERT_EQ(oracle.SetReaches(*sources, v), up) << GetParam();
    }
    std::remove(path.c_str());
  }
}

TEST_P(PersistenceRoundTripTest, InspectReportsTheSavedHeader) {
  const DataGraph g = TestDag();
  auto built =
      MakeReachabilityIndex(std::string_view(GetParam()), g.graph());
  ASSERT_NE(built, nullptr);
  const std::string path = TempPath("inspect");
  ASSERT_TRUE(
      storage::SaveReachabilityIndex(*built, g.graph(), path).ok());

  auto info = storage::InspectReachabilityIndex(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->format_version, storage::kIndexFormatVersion);
  EXPECT_EQ(info->spec, GetParam());
  EXPECT_EQ(info->graph_fingerprint,
            storage::GraphFingerprint(g.graph()));
  EXPECT_EQ(info->num_nodes, g.NumNodes());
  EXPECT_EQ(info->num_edges, g.NumEdges());
  EXPECT_GT(info->payload_bytes, 0u);
  EXPECT_EQ(info->file_bytes, ReadFileBytes(path).size());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecs, PersistenceRoundTripTest,
    ::testing::ValuesIn(AllReachabilitySpecs()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), ':', '_');
      return name;
    });

// ---------------------------------------------------- rejection paths

class PersistenceRejectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = std::make_unique<DataGraph>(TestDag());
    auto built = MakeReachabilityIndex(std::string_view("three_hop"),
                                       g_->graph());
    ASSERT_NE(built, nullptr);
    path_ = TempPath("rejection");
    ASSERT_TRUE(
        storage::SaveReachabilityIndex(*built, g_->graph(), path_).ok());
    bytes_ = ReadFileBytes(path_);
    ASSERT_GT(bytes_.size(), 32u);
    auto info = storage::InspectReachabilityIndex(path_);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    payload_bytes_ = info->payload_bytes;
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Writes a mutated copy and expects loading to fail with `code`,
  /// both with and without the graph cross-check.
  void ExpectRejected(const std::string& mutated, StatusCode code) {
    WriteFileBytes(path_, mutated);
    auto plain = storage::LoadReachabilityIndex(path_);
    ASSERT_FALSE(plain.ok());
    EXPECT_EQ(plain.status().code(), code) << plain.status().ToString();
    auto checked = storage::LoadReachabilityIndex(path_, g_->graph());
    ASSERT_FALSE(checked.ok());
  }

  size_t PayloadBytes() const { return payload_bytes_; }

  std::unique_ptr<DataGraph> g_;
  std::string path_;
  std::string bytes_;
  size_t payload_bytes_ = 0;
};

TEST_F(PersistenceRejectionTest, MissingFileIsNotFound) {
  auto loaded = storage::LoadReachabilityIndex(path_ + ".does-not-exist");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(PersistenceRejectionTest, CorruptedMagicIsRejected) {
  std::string mutated = bytes_;
  mutated[0] = 'X';
  ExpectRejected(mutated, StatusCode::kParseError);
}

TEST_F(PersistenceRejectionTest, TruncationIsRejected) {
  for (size_t keep : {size_t{0}, size_t{4}, size_t{15}, size_t{40},
                      bytes_.size() / 2, bytes_.size() - 1}) {
    ExpectRejected(bytes_.substr(0, keep), StatusCode::kParseError);
  }
}

TEST_F(PersistenceRejectionTest, TruncationAtEveryByteIsRejected) {
  // Exhaustive truncation fuzz over the whole saved file: every prefix
  // must fail with a clean Status (the CRC covers all of them), and —
  // more importantly under ASan — must never allocate from a parsed
  // length that overruns the remaining bytes.
  for (size_t keep = 0; keep < bytes_.size(); ++keep) {
    WriteFileBytes(path_, bytes_.substr(0, keep));
    auto loaded = storage::LoadReachabilityIndex(path_);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << keep << " bytes loaded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << "prefix " << keep << ": " << loaded.status().ToString();
  }
}

TEST_F(PersistenceRejectionTest, BodyTruncationAtEveryByteFailsCleanly) {
  // The CRC normally rejects truncation before the body parser ever
  // runs. Drive LoadOracleBody directly over every truncated body
  // prefix to exercise the section bounds checks themselves: a length
  // prefix must be validated against the remaining payload BEFORE any
  // allocation, so a lying count can neither overrun the buffer nor
  // OOM the process.
  const size_t body_start = bytes_.size() - PayloadBytes();
  const std::string_view body =
      std::string_view(bytes_).substr(body_start);
  for (size_t keep = 0; keep < body.size(); ++keep) {
    storage::Reader r(body.substr(0, keep));
    r.set_pod_align(true);
    auto oracle = storage::LoadOracleBody("three_hop", &r);
    ASSERT_FALSE(oracle.ok()) << "body prefix of " << keep << " bytes";
  }
  // The untruncated body still parses, proving the loop above fails
  // for the right reason.
  storage::Reader full(body);
  full.set_pod_align(true);
  ASSERT_TRUE(storage::LoadOracleBody("three_hop", &full).ok());
}

TEST_F(PersistenceRejectionTest, VersionMismatchIsRejected) {
  std::string mutated = bytes_;
  mutated[8] = static_cast<char>(storage::kIndexFormatVersion + 1);
  ExpectRejected(mutated, StatusCode::kFailedPrecondition);
}

TEST_F(PersistenceRejectionTest, PayloadBitFlipFailsTheChecksum) {
  std::string mutated = bytes_;
  mutated[mutated.size() - 5] ^= 0x40;
  ExpectRejected(mutated, StatusCode::kParseError);
}

TEST_F(PersistenceRejectionTest, TrailingGarbageFailsTheChecksum) {
  ExpectRejected(bytes_ + "extra", StatusCode::kParseError);
}

TEST_F(PersistenceRejectionTest, WrongGraphFingerprintIsRejected) {
  // Untouched file: fine without a graph, fine with the right graph,
  // FailedPrecondition with a structurally different one.
  ASSERT_TRUE(storage::LoadReachabilityIndex(path_).ok());
  ASSERT_TRUE(storage::LoadReachabilityIndex(path_, g_->graph()).ok());
  const DataGraph other = TestDag(/*seed=*/99);
  auto loaded = storage::LoadReachabilityIndex(path_, other.graph());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(PersistenceRejectionTest, SaveToUnwritablePathFails) {
  auto built = MakeReachabilityIndex(std::string_view("interval"),
                                     g_->graph());
  ASSERT_NE(built, nullptr);
  const Status s = storage::SaveReachabilityIndex(
      *built, g_->graph(), "/no-such-dir/deep/idx.gtpqidx");
  ASSERT_FALSE(s.ok());
}

// ------------------------------------------------------- file: serving

TEST(FileSpecTest, FactoryServesAndCrossChecksThePersistedIndex) {
  const DataGraph g = TestDag();
  auto built =
      MakeReachabilityIndex(std::string_view("contour"), g.graph());
  const std::string path = TempPath("filespec");
  ASSERT_TRUE(
      storage::SaveReachabilityIndex(*built, g.graph(), path).ok());
  const std::string spec = "file:" + path;

  EXPECT_TRUE(IsValidReachabilitySpec(spec));
  EXPECT_FALSE(IsValidReachabilitySpec("file:" + path + ".missing"));
  // A whole-graph index cannot act as a per-shard sub-index: the
  // factory must refuse (not abort mid-shard-build) even though the
  // file itself is valid.
  EXPECT_FALSE(IsValidReachabilitySpec("sharded:" + spec));
  EXPECT_EQ(MakeReachabilityIndex(std::string_view("sharded:" + spec),
                                  g.graph()),
            nullptr);
  // An unknown decorator prefix is rejected, not skipped over.
  EXPECT_FALSE(IsValidReachabilitySpec("cached:" + spec));
  EXPECT_EQ(MakeReachabilityIndex(std::string_view("cached:" + spec),
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

  // The fingerprint guard: a different graph refuses to serve it.
  const DataGraph other = TestDag(/*seed=*/77);
  EXPECT_EQ(MakeReachabilityIndex(std::string_view(spec), other.graph()),
            nullptr);
  std::remove(path.c_str());
}

// Files saved under a header naming a spec the factory no longer has
// ("cached:" bodies from a since-removed probe-cache decorator, and
// "delta:" overlays, which are no longer persisted) must fail to load
// with a typed error, never be served as their inner index. Each file is
// built byte for byte as SaveReachabilityIndex lays one out.
TEST(FileSpecTest, RemovedSpecFilesAreUnimplemented) {
  const DataGraph g = TestDag();
  auto contour =
      MakeReachabilityIndex(std::string_view("contour"), g.graph());
  storage::Writer body;
  body.set_pod_align(true);
  ASSERT_TRUE(storage::SaveOracleBody(*contour, &body).ok());
  for (const std::string removed : {"cached:contour", "delta:contour"}) {
    EXPECT_FALSE(IsValidReachabilitySpec(removed)) << removed;
    storage::Writer header;
    header.set_pod_align(true);
    header.WriteString(removed);
    header.WriteU64(storage::GraphFingerprint(g.graph()));
    header.WriteU64(g.NumNodes());
    header.WriteU64(g.NumEdges());
    header.WriteU64(body.buffer().size());
    header.AlignTo8();
    const std::string path = TempPath("removed_spec");
    ASSERT_TRUE(storage::WriteChecksummedFile(
                    path, storage::kIndexFormat,
                    {header.buffer(), body.buffer()})
                    .ok());

    auto info = storage::InspectReachabilityIndex(path);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->spec, removed);
    const Status heap =
        storage::LoadReachabilityIndex(path, g.graph()).status();
    EXPECT_EQ(heap.code(), StatusCode::kUnimplemented) << heap.ToString();
    const Status view =
        storage::LoadReachabilityIndexView(path, g.graph()).status();
    EXPECT_EQ(view.code(), StatusCode::kUnimplemented) << view.ToString();
    for (const std::string prefix : {"file:", "mmap:"}) {
      EXPECT_EQ(MakeReachabilityIndex(std::string_view(prefix + path),
                                      g.graph()),
                nullptr)
          << prefix << removed;
    }
    std::remove(path.c_str());
  }
}

TEST(FileSpecTest, GteaOverLoadedIndexMatchesNaive) {
  const DataGraph g = TestDag(/*seed=*/21);
  auto built = MakeReachabilityIndex(std::string_view("sharded:interval"),
                                     g.graph());
  const std::string path = TempPath("differential");
  ASSERT_TRUE(
      storage::SaveReachabilityIndex(*built, g.graph(), path).ok());

  auto factory = SharedEngineFactory::Make("gtea:file:" + path, g);
  ASSERT_NE(factory, nullptr);
  auto engine = factory->Create();
  BruteForceEngine naive(g);
  int evaluated = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    QueryGenOptions qo;
    qo.num_nodes = 5;
    qo.pc_probability = 0.3;
    qo.predicate_fraction = 0.4;
    qo.output_fraction = 0.7;
    qo.disjunction_probability = 0.4;
    qo.negation_probability = 0.2;
    qo.seed = seed * 29 + 7;
    auto q = GenerateRandomQueryWithRetry(g, qo);
    if (!q.has_value()) continue;
    ++evaluated;
    ASSERT_EQ(engine->Evaluate(*q), naive.Evaluate(*q))
        << "seed " << seed;
  }
  EXPECT_GT(evaluated, 5);
  std::remove(path.c_str());
}

TEST(FileSpecTest, SharedEngineFactoryStampsWorkersOverALoadedIndex) {
  const DataGraph g = TestDag(/*seed=*/31);
  auto built =
      MakeReachabilityIndex(std::string_view("contour"), g.graph());
  const std::string path = TempPath("factory");
  ASSERT_TRUE(
      storage::SaveReachabilityIndex(*built, g.graph(), path).ok());

  auto factory = SharedEngineFactory::Make("gtea:file:" + path, g);
  ASSERT_NE(factory, nullptr);
  auto a = factory->Create();
  auto b = factory->Create();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  BruteForceEngine naive(g);
  QueryGenOptions qo;
  qo.num_nodes = 5;
  qo.seed = 13;
  auto q = GenerateRandomQueryWithRetry(g, qo);
  ASSERT_TRUE(q.has_value());
  const auto expected = naive.Evaluate(*q);
  EXPECT_EQ(a->Evaluate(*q), expected);
  EXPECT_EQ(b->Evaluate(*q), expected);
  std::remove(path.c_str());
}

// ------------------------------------------------------- crash drill

#ifdef __linux__

/// Saves A to `path` and times one save of B elsewhere. Then, up to 20
/// rounds with one child at a time: a forked child saves B over `path`
/// and is SIGKILLed after a random delay of 0.5 to 1.5 times that save
/// time (so most kills land while it serializes or writes), and `check`
/// looks at `path`.
template <typename SaveA, typename SaveB, typename Check>
void KillSavesMidway(const std::string& path, SaveA save_a, SaveB save_b,
                     Check check) {
  Timer timer;
  ASSERT_TRUE(save_b(path + ".timing").ok());
  const auto save_us = static_cast<uint64_t>(1000 * timer.ElapsedMillis());
  ASSERT_TRUE(save_a(path).ok());
  Rng rng(17);
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) _exit(save_b(path).ok() ? 0 : 1);
    std::this_thread::sleep_for(std::chrono::microseconds(
        save_us / 2 + rng.NextBounded(save_us + 1)));
    kill(child, SIGKILL);
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    check();
  }
  for (const std::string& p : {path, path + ".tmp", path + ".timing"}) {
    std::remove(p.c_str());
  }
}

TEST(CrashDrillTest, KilledIndexSaveLeavesALoadableFile) {
  const DataGraph a = TestDag();
  const DataGraph b = RandomDag({.num_nodes = 3000, .seed = 8});
  const auto saver = [](const DataGraph& g, std::string_view spec) {
    return [&g, index = MakeReachabilityIndex(spec, g.graph())](
               const std::string& path) {
      return storage::SaveReachabilityIndex(*index, g.graph(), path);
    };
  };
  const std::string path = TempPath("crash_drill");
  KillSavesMidway(
      path, saver(a, "interval"), saver(b, "transitive_closure"), [&] {
        const Digraph& g = storage::LoadReachabilityIndex(path, a.graph()).ok()
                               ? a.graph()
                               : b.graph();
        EXPECT_NE(MakeReachabilityIndex("file:" + path, g), nullptr);
        EXPECT_NE(MakeReachabilityIndex("mmap:" + path, g), nullptr);
      });
}

/// A one-shard map whose boundary is every vertex of a random DAG of
/// `n` nodes, so its closure (and file) grows as n^2.
cluster::PartitionMap MapOver(size_t n) {
  const DataGraph dag = RandomDag({.num_nodes = n, .seed = 9});
  BoundaryLayout layout;
  layout.shard_starts = {0, n};
  layout.boundary.resize(n);
  std::iota(layout.boundary.begin(), layout.boundary.end(), NodeId{0});
  layout.contributions.resize(1);
  layout.closure = std::make_shared<const TransitiveClosure>(
      TransitiveClosure::Build(dag.graph()));
  cluster::PartitionMap map;
  map.num_nodes = n;
  map.set_layout(std::move(layout));
  map.endpoints = {"127.0.0.1:1"};
  map.shard_fingerprints = {0};
  return map;
}

TEST(CrashDrillTest, KilledMapSaveLeavesALoadableFile) {
  const cluster::PartitionMap a = MapOver(8);
  const cluster::PartitionMap b = MapOver(3000);
  const auto saver = [](const cluster::PartitionMap& map) {
    return [&map](const std::string& path) {
      return cluster::SavePartitionMap(map, path);
    };
  };
  const std::string path = TempPath("crash_drill_map");
  KillSavesMidway(path, saver(a), saver(b), [&] {
    auto loaded = cluster::LoadPartitionMap(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(loaded->num_nodes == a.num_nodes ||
                loaded->num_nodes == b.num_nodes);
  });
}

#endif  // __linux__

}  // namespace
}  // namespace gtpq

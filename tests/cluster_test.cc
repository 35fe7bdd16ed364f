// Cluster serving tests: .gtpqmap round-trip + rejection suite (bad
// magic, corruption, overlapping/uncovered ranges, shard-index
// fingerprint mismatch), the multi-pivot PROBE wire codec, degree-aware
// cut planning, and the ShardRouter differential — a 3-shard in-process
// cluster must answer every point probe and the whole set API exactly
// like the in-process `sharded:` oracle and the materialized closure,
// before and after a routed update with its epoch barrier, and GTEA over
// the router must match the unpartitioned engine from 4 threads sharing
// the router at once. Also bounds PROBE frames per set call and counts
// failed probes. Enrolled in the TSan CI job.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iterator>
#include <memory>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/partition.h"
#include "cluster/partition_map.h"
#include "cluster/shard_router.h"
#include "common/rng.h"
#include "core/gtea.h"
#include "dynamic/graph_delta.h"
#include "graph/graph_io.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/federation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/query_generator.h"
#include "reachability/sharded_oracle.h"
#include "reachability/transitive_closure.h"
#include "storage/index_io.h"
#include "storage/serializer.h"
#include "tests/test_util.h"
#include "workload/graph_gen_spec.h"

namespace gtpq {
namespace cluster {

/// Reaches the ShardRouter internals its public API leaves out.
struct ShardRouterTestPeer {
  static void SetProbeConnectAttempts(ShardRouter& router, int attempts) {
    router.probe_connect_attempts_ = attempts;
  }
};

}  // namespace cluster

namespace {

using cluster::BuildPartition;
using cluster::BuildPartitionOptions;
using cluster::LoadPartitionMap;
using cluster::PartitionMap;
using cluster::PlanContiguousCuts;
using cluster::SavePartitionMap;
using cluster::ShardRange;
using cluster::ShardRouter;
using cluster::ShardRouterTestPeer;
using cluster::VerifyShardIndex;

std::string TempDirFor(const std::string& name) {
  return ::testing::TempDir() + "gtpq_cluster_" + name;
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

/// Two shards over the 8-vertex path 0 -> 1 -> ... -> 7: boundary
/// {3, 4} and the one cross edge 3 -> 4.
ShardedOracle TinyOracle() {
  Digraph path(8);
  for (NodeId v = 0; v + 1 < 8; ++v) path.AddEdge(v, v + 1);
  path.Finalize();
  ShardedOracleOptions options;
  options.num_shards = 2;
  return ShardedOracle(path, options);
}

/// A minimal structurally-valid map with TinyOracle's layout — the seed
/// the rejection tests corrupt.
PartitionMap TinyMap() {
  PartitionMap map;
  map.num_nodes = 8;
  map.num_edges = 7;
  map.set_layout(TinyOracle().layout());
  map.endpoints = {"127.0.0.1:1", "127.0.0.1:2"};
  map.shard_fingerprints = {1, 2};
  return map;
}

// ------------------------------------------------------ map round trip

TEST(PartitionMapTest, BuildRoundTripsThroughDisk) {
  auto graph = workload::GenerateGraphFromSpec("digraph:200,11,3");
  ASSERT_TRUE(graph.ok());
  const std::string dir = TempDirFor("roundtrip");
  std::filesystem::create_directories(dir);

  BuildPartitionOptions options;
  options.plan.num_shards = 3;
  options.endpoints = {"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"};
  auto built = BuildPartition(*graph, options, dir);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  auto loaded = LoadPartitionMap(built->map_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const PartitionMap& a = built->map;
  const PartitionMap& b = *loaded;
  EXPECT_EQ(a.graph_fingerprint, b.graph_fingerprint);
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.num_edges, b.num_edges);
  EXPECT_EQ(a.inner_spec, b.inner_spec);
  ASSERT_EQ(a.num_shards(), b.num_shards());
  for (size_t s = 0; s < a.num_shards(); ++s) {
    EXPECT_EQ(a.ranges[s].begin, b.ranges[s].begin);
    EXPECT_EQ(a.ranges[s].end, b.ranges[s].end);
    EXPECT_EQ(a.endpoints[s], b.endpoints[s]);
    EXPECT_EQ(a.shard_fingerprints[s], b.shard_fingerprints[s]);
  }
  EXPECT_EQ(a.layout.shard_starts, b.layout.shard_starts);
  EXPECT_EQ(a.layout.contributions, b.layout.contributions);
  EXPECT_EQ(a.layout.boundary, b.layout.boundary);
  EXPECT_EQ(a.layout.cross_edges, b.layout.cross_edges);
  ASSERT_NE(b.layout.closure, nullptr);
  EXPECT_EQ(a.layout.closure->NumNodes(), b.layout.closure->NumNodes());
  for (uint32_t x = 0; x < a.layout.boundary.size(); ++x) {
    for (uint32_t y = 0; y < a.layout.boundary.size(); ++y) {
      EXPECT_EQ(a.layout.closure->Reaches(x, y),
                b.layout.closure->Reaches(x, y));
    }
  }

  // Every written shard index is stamped with the fingerprint the map
  // expects; pairing a shard with another shard's index is rejected.
  for (size_t s = 0; s < b.num_shards(); ++s) {
    EXPECT_TRUE(VerifyShardIndex(b, s, built->index_paths[s]).ok());
  }
  const Status crossed = VerifyShardIndex(b, 0, built->index_paths[1]);
  EXPECT_EQ(crossed.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(crossed.message().find("different subgraph"),
            std::string::npos);
}

// ------------------------------------------------------ rejection suite

// A map shares the .gtpqidx prologue (storage/checked_file.h): damage
// anywhere, or a file of the previous format (.gtpqmap v1, and
// .gtpqidx v2 for the index), is refused before the body is parsed.
TEST(PartitionMapTest, RejectsDamagedFilesAndOlderFormats) {
  const std::string path = TempDirFor("damaged.gtpqmap");
  ASSERT_TRUE(SavePartitionMap(TinyMap(), path).ok());
  const std::string good = ReadFileBytes(path);
  std::string magic = good, flipped = good, v1 = good;
  magic[0] = 'X';
  flipped[good.size() / 2] ^= 0x40;
  v1[8] = 1;
  const std::tuple<std::string, StatusCode, const char*> cases[] = {
      {magic, StatusCode::kParseError, "magic"},
      {flipped, StatusCode::kParseError, "checksum"},
      {good.substr(0, good.size() - 5), StatusCode::kParseError, "checksum"},
      {v1, StatusCode::kFailedPrecondition,
       "format version mismatch: file has v1"},
  };
  for (const auto& [bytes, code, says] : cases) {
    WriteFileBytes(path, bytes);
    const Status st = LoadPartitionMap(path).status();
    EXPECT_EQ(st.code(), code) << st.ToString();
    EXPECT_NE(st.message().find(says), std::string::npos) << st.ToString();
  }

  Digraph graph(8);
  graph.Finalize();
  const std::string index_path = TempDirFor("v2.gtpqidx");
  ASSERT_TRUE(
      storage::SaveReachabilityIndex(TinyOracle(), graph, index_path).ok());
  std::string v2 = ReadFileBytes(index_path);
  v2[8] = 2;
  WriteFileBytes(index_path, v2);
  const Status st = storage::LoadReachabilityIndex(index_path).status();
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("format version mismatch: file has v2"),
            std::string::npos)
      << st.ToString();
}

// One table of broken layouts, each run through the .gtpqmap loader and
// through a sharded: index section: the one validator must reject both
// with the same ParseError.
TEST(PartitionMapTest, RejectsBadLayoutsInMapsAndShardedSections) {
  const ShardedOracle oracle = TinyOracle();
  const BoundaryLayout good = oracle.layout();
  struct Case {
    const char* name;
    std::function<void(BoundaryLayout*)> mutate;
    const char* says;
  };
  const Case cases[] = {
      {"no change", [](BoundaryLayout*) {}, nullptr},
      {"overlapping ranges",
       [](BoundaryLayout* l) { l->shard_starts = {0, 5, 4, 8}; },
       "overlapping"},
      {"uncovered vertex 0",
       [](BoundaryLayout* l) { l->shard_starts = {1, 4, 8}; }, "uncovered"},
      {"cross edge off the boundary",
       [](BoundaryLayout* l) { l->cross_edges.push_back({2, 5}); },
       "does not join two boundary vertices"},
      {"out-of-range contribution",
       [](BoundaryLayout* l) { l->contributions[1].push_back({0, 2}); },
       "contribution names boundary index 2"},
      {"missing closure",
       [](BoundaryLayout* l) { l->closure = nullptr; }, "closure covers 0"},
  };
  const std::string path = TempDirFor("badlayout.gtpqmap");
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    BoundaryLayout layout = good;
    c.mutate(&layout);

    PartitionMap map = TinyMap();
    map.set_layout(layout);
    ASSERT_TRUE(SavePartitionMap(map, path).ok());  // Save trusts callers
    const Status from_map = LoadPartitionMap(path).status();

    storage::Writer section;
    section.set_pod_align(true);
    section.WriteString("interval");
    layout.Save(&section);
    for (size_t s = 0; s < oracle.NumShards(); ++s) {
      ASSERT_TRUE(
          storage::SaveOracleBody(oracle.shard_index(s), &section).ok());
    }
    storage::Reader reader(section.buffer());
    reader.set_pod_align(true);
    const Status from_index =
        storage::LoadOracleBody("sharded:interval", &reader).status();

    if (c.says == nullptr) {
      EXPECT_TRUE(from_map.ok()) << from_map.ToString();
      EXPECT_TRUE(from_index.ok()) << from_index.ToString();
      continue;
    }
    EXPECT_EQ(from_map.code(), StatusCode::kParseError);
    EXPECT_EQ(from_index.code(), StatusCode::kParseError);
    EXPECT_EQ(from_map.message(), from_index.message());
    EXPECT_NE(from_map.message().find(c.says), std::string::npos)
        << from_map.ToString();
  }

  // A map also knows its graph's node count: cuts ending short of it
  // leave the last vertices unowned.
  PartitionMap short_map = TinyMap();
  BoundaryLayout short_layout = good;
  short_layout.shard_starts = {0, 4, 7};
  short_map.set_layout(short_layout);
  ASSERT_TRUE(SavePartitionMap(short_map, path).ok());
  const Status st = LoadPartitionMap(path).status();
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("covers 7 of 8"), std::string::npos);
}

TEST(PartitionMapTest, RejectsShardCountDisagreement) {
  PartitionMap map = TinyMap();
  map.endpoints.pop_back();
  EXPECT_EQ(map.Validate().code(), StatusCode::kParseError);
}

// ---------------------------------------------------------- wire codec

TEST(ProbeCodecTest, MultiPivotRequestAndMatrixResultRoundTrip) {
  net::ProbeRequest request;
  request.reverse = true;
  request.pivots = {41, 2, 9};
  request.ids = {0, 7, 13, 41};
  net::ProbeRequest request2;
  ASSERT_TRUE(
      net::DecodeProbeRequest(net::EncodeProbeRequest(request), &request2)
          .ok());
  EXPECT_EQ(request2.reverse, request.reverse);
  EXPECT_EQ(request2.pivots, request.pivots);
  EXPECT_EQ(request2.ids, request.ids);

  // 3 x 4 matrix: bit r * 4 + c. Row 0 = 0b1010, row 1 = 0b0001,
  // row 2 = 0b1100.
  net::ProbeResult result;
  result.epoch = 9;
  result.rows = 3;
  result.cols = 4;
  result.bits = {0b00011010, 0b1100};
  net::ProbeResult result2;
  ASSERT_TRUE(
      net::DecodeProbeResult(net::EncodeProbeResult(result), &result2)
          .ok());
  EXPECT_EQ(result2.epoch, 9u);
  ASSERT_EQ(result2.rows, 3u);
  ASSERT_EQ(result2.cols, 4u);
  const bool expect[3][4] = {{false, true, false, true},
                             {true, false, false, false},
                             {false, false, true, true}};
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(result2.Get(r, c), expect[r][c]) << r << "," << c;
    }
  }
}

TEST(ProbeCodecTest, RejectsMalformedFrames) {
  net::ProbeRequest request;
  // Direction byte beyond {0, 1}.
  std::string bad = net::EncodeProbeRequest({false, {3}, {1}});
  bad[0] = 2;
  EXPECT_FALSE(net::DecodeProbeRequest(bad, &request).ok());

  // A bitmask whose size is not (rows * cols + 7) / 8 bytes.
  net::ProbeResult out;
  for (const auto& [rows, cols] : {std::pair{3u, 4u}, std::pair{1u, 9u}}) {
    storage::Writer w;
    w.WriteU64(1);
    w.WriteU32(rows);
    w.WriteU32(cols);
    w.WritePodVec(std::vector<uint8_t>{0xff, 0x01});
    const bool fits = (rows * cols + 7) / 8 == 2;
    EXPECT_EQ(net::DecodeProbeResult(w.buffer(), &out).ok(), fits)
        << rows << " x " << cols;
  }
  storage::Writer w;
  w.WriteU64(1);
  w.WriteU32(4);
  w.WriteU32(4);  // 16 bits need 2 bytes
  w.WritePodVec(std::vector<uint8_t>{0xff});
  EXPECT_FALSE(net::DecodeProbeResult(w.buffer(), &out).ok());

  // A v1-v5 peer fails at HELLO instead of misreading a frame.
  EXPECT_EQ(net::kWireVersion, 6u);
  for (const uint32_t version : {1u, 2u, 3u, 4u, 5u}) {
    storage::Writer hello;
    hello.WriteU32(net::kWireMagic);
    hello.WriteU32(version);
    EXPECT_FALSE(net::DecodeHello(hello.buffer()).ok()) << version;
  }
  EXPECT_TRUE(net::DecodeHello(net::EncodeHello()).ok());
}

// ------------------------------------------------------------ planning

TEST(PartitionPlanTest, CutsAreMonotoneAndCheaper) {
  auto graph = workload::GenerateGraphFromSpec("dag:400,9,4");
  ASSERT_TRUE(graph.ok());
  const Digraph& g = graph->graph();

  cluster::PartitionPlanOptions equal;
  equal.num_shards = 4;
  equal.degree_aware = false;
  cluster::PartitionPlanOptions aware = equal;
  aware.degree_aware = true;

  const auto cost_of = [&](const std::vector<size_t>& cuts) {
    size_t crossing = 0;
    const auto shard_of = [&](NodeId v) {
      return static_cast<size_t>(
                 std::upper_bound(cuts.begin(), cuts.end(),
                                  static_cast<size_t>(v)) -
                 cuts.begin()) -
             1;
    };
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      for (NodeId v : g.OutNeighbors(u)) {
        if (shard_of(u) != shard_of(v)) ++crossing;
      }
    }
    return crossing;
  };

  for (const auto& plan : {equal, aware}) {
    const std::vector<size_t> cuts = PlanContiguousCuts(g, plan);
    ASSERT_EQ(cuts.size(), plan.num_shards + 1);
    EXPECT_EQ(cuts.front(), 0u);
    EXPECT_EQ(cuts.back(), g.NumNodes());
    EXPECT_TRUE(std::is_sorted(cuts.begin(), cuts.end()));
  }
  EXPECT_LE(cost_of(PlanContiguousCuts(g, aware)),
            cost_of(PlanContiguousCuts(g, equal)));
}

// ----------------------------------------------------- router fixture

#define START_OR_SKIP(server)                                   \
  do {                                                          \
    const Status _st = (server).Start();                        \
    if (_st.code() == StatusCode::kUnimplemented) {             \
      GTEST_SKIP() << _st.ToString();                           \
    }                                                           \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                    \
  } while (0)

/// A full in-process cluster: partition artifacts on disk, one
/// NetServer per shard serving "gtea:file:<shard idx>", and a
/// connected router.
struct TestCluster {
  DataGraph g;
  cluster::PartitionArtifacts art;
  std::vector<DataGraph> shard_graphs;
  std::vector<std::unique_ptr<net::NetServer>> servers;
  std::unique_ptr<ShardRouter> router;
};

void BringUp(const std::string& gen_spec, const std::string& name,
             TestCluster* cluster, int health_interval_ms = 500,
             cluster::ShardRouterOptions router_options = {}) {
  auto graph = workload::GenerateGraphFromSpec(gen_spec);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  cluster->g = graph.TakeValue();
  const std::string dir = TempDirFor(name);
  std::filesystem::create_directories(dir);

  BuildPartitionOptions options;
  options.plan.num_shards = 3;
  auto built = BuildPartition(cluster->g, options, dir);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  cluster->art = built.TakeValue();

  const size_t shards = cluster->art.map.num_shards();
  cluster->shard_graphs.reserve(shards);
  std::vector<std::string> endpoints;
  for (size_t s = 0; s < shards; ++s) {
    auto local = LoadDataGraphFromFile(cluster->art.graph_paths[s]);
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    cluster->shard_graphs.push_back(local.TakeValue());
    net::NetServerOptions server_options;
    server_options.runtime.num_threads = 2;
    server_options.runtime.engine_spec =
        "gtea:file:" + cluster->art.index_paths[s];
    cluster->servers.push_back(std::make_unique<net::NetServer>(
        cluster->shard_graphs[s], server_options));
    START_OR_SKIP(*cluster->servers[s]);
    endpoints.push_back("127.0.0.1:" +
                        std::to_string(cluster->servers[s]->port()));
  }

  router_options.endpoints = std::move(endpoints);
  router_options.health_interval_ms = health_interval_ms;
  auto router = ShardRouter::Connect(cluster->art.map, router_options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  cluster->router = router.TakeValue();
}

/// Sorted, unique member set of `kind`: 0 empty, 1 within one shard,
/// 2 across all shards, 3 anywhere.
std::vector<NodeId> RandomMembers(const PartitionMap& map, int kind,
                                  Rng* rng) {
  std::vector<NodeId> members;
  const auto draw = [&](const ShardRange& r) {
    members.push_back(static_cast<NodeId>(
        r.begin + rng->NextBounded(r.end - r.begin)));
  };
  const size_t count = 1 + rng->NextBounded(6);
  switch (kind) {
    case 1: {
      const ShardRange& r = map.ranges[rng->NextBounded(map.num_shards())];
      for (size_t i = 0; i < count; ++i) draw(r);
      break;
    }
    case 2:
      for (const ShardRange& r : map.ranges) {
        for (size_t i = 0; i < count; ++i) draw(r);
      }
      break;
    case 3:
      for (size_t i = 0; i < count; ++i) draw({0, map.num_nodes});
      break;
    default:
      break;
  }
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  return members;
}

/// Checks `oracle`'s whole set API (both summaries, both batches,
/// SuccessorsAmong) against the materialized closure on random member
/// sets: empty, single-shard, across all shards, and self-probes (the
/// probed nodes include the members, so cycles show up as Reaches(v, v)).
void ExpectSetApiMatches(const ReachabilityOracle& oracle,
                         const TransitiveClosure& closure,
                         const PartitionMap& map, uint64_t seed,
                         size_t rounds) {
  Rng rng(seed);
  for (size_t round = 0; round < rounds; ++round) {
    const std::vector<NodeId> targets =
        RandomMembers(map, static_cast<int>(round % 4), &rng);
    const std::vector<NodeId> targets2 =
        RandomMembers(map, static_cast<int>((round + 1) % 4), &rng);
    const std::vector<NodeId> sources =
        RandomMembers(map, static_cast<int>((round + 2) % 4), &rng);
    std::vector<NodeId> probed =
        RandomMembers(map, static_cast<int>(round % 3) + 1, &rng);
    if (round % 2 == 0) {
      probed.insert(probed.end(), targets.begin(), targets.end());
      probed.insert(probed.end(), sources.begin(), sources.end());
    }
    SCOPED_TRACE("round " + std::to_string(round));

    const auto reaches_any = [&](NodeId v, const std::vector<NodeId>& set,
                                 bool forward) {
      for (const NodeId m : set) {
        if (forward ? closure.Reaches(v, m) : closure.Reaches(m, v)) {
          return true;
        }
      }
      return false;
    };

    const auto t1 = oracle.SummarizeTargets(targets);
    const auto t2 = oracle.SummarizeTargets(targets2);
    const auto src = oracle.SummarizeSources(sources);
    const auto prepared = oracle.PrepareSuccessorTargets(targets);
    const ReachabilityOracle::SetSummary* sets[] = {t1.get(), t2.get()};
    std::vector<std::vector<char>> down;
    oracle.ReachesSetsBatch(probed, sets, &down);
    std::vector<char> up;
    oracle.SetReachesBatch(*src, probed, &up);
    ASSERT_EQ(down.size(), 2u);
    ASSERT_EQ(up.size(), probed.size());
    for (size_t i = 0; i < probed.size(); ++i) {
      const NodeId v = probed[i];
      const bool to_t1 = reaches_any(v, targets, true);
      const bool from_src = reaches_any(v, sources, false);
      ASSERT_EQ(down[0][i] != 0, to_t1) << "ReachesSetsBatch at " << v;
      ASSERT_EQ(down[1][i] != 0, reaches_any(v, targets2, true))
          << "ReachesSetsBatch (second set) at " << v;
      ASSERT_EQ(up[i] != 0, from_src) << "SetReachesBatch at " << v;
      ASSERT_EQ(oracle.ReachesSet(v, *t1), to_t1) << "ReachesSet at " << v;
      ASSERT_EQ(oracle.SetReaches(*src, v), from_src)
          << "SetReaches at " << v;
      std::vector<uint32_t> successors;
      oracle.SuccessorsAmong(v, *prepared, &successors);
      std::vector<uint32_t> expected;
      for (uint32_t k = 0; k < targets.size(); ++k) {
        if (closure.Reaches(v, targets[k])) expected.push_back(k);
      }
      ASSERT_EQ(successors, expected) << "SuccessorsAmong at " << v;
    }
  }
}

void ExpectDifferential(const TestCluster& cluster, uint64_t seed,
                        size_t samples) {
  // Ground truths: the in-process sharded oracle over the SAME cuts,
  // and the materialized closure.
  ShardedOracleOptions sharded_options;
  sharded_options.num_shards = cluster.art.map.num_shards();
  sharded_options.inner_spec = cluster.art.map.inner_spec;
  for (const ShardRange& r : cluster.art.map.ranges) {
    sharded_options.custom_starts.push_back(static_cast<size_t>(r.begin));
  }
  sharded_options.custom_starts.push_back(cluster.g.NumNodes());
  ShardedOracle sharded(cluster.g.graph(), sharded_options);
  const TransitiveClosure closure =
      TransitiveClosure::Build(cluster.g.graph());

  Rng rng(seed);
  const size_t n = cluster.g.NumNodes();
  for (size_t i = 0; i < samples; ++i) {
    const NodeId from = static_cast<NodeId>(rng.NextBounded(n));
    // Bias toward self-probes occasionally: cyclic self-reachability is
    // the subtlest semantic the overlay has to preserve.
    const NodeId to = (i % 7 == 0)
                          ? from
                          : static_cast<NodeId>(rng.NextBounded(n));
    const bool expected = closure.Reaches(from, to);
    ASSERT_EQ(sharded.Reaches(from, to), expected)
        << "sharded oracle disagrees at (" << from << ", " << to << ")";
    ASSERT_EQ(cluster.router->Reaches(from, to), expected)
        << "router disagrees at (" << from << ", " << to << ")";
  }
  {
    SCOPED_TRACE("sharded set API");
    ExpectSetApiMatches(sharded, closure, cluster.art.map, seed, 24);
  }
  {
    SCOPED_TRACE("router set API");
    ExpectSetApiMatches(*cluster.router, closure, cluster.art.map, seed, 24);
  }
}

TEST(ShardRouterTest, DifferentialAcrossGeneratorSpecs) {
  const struct {
    const char* gen;
    const char* name;
  } specs[] = {
      {"dag:120,3,3", "dag"},
      {"digraph:140,5,4", "digraph"},
      {"tree:100,2", "tree"},
  };
  for (const auto& spec : specs) {
    SCOPED_TRACE(spec.gen);
    TestCluster cluster;
    BringUp(spec.gen, std::string("diff_") + spec.name, &cluster);
    if (cluster.router == nullptr) return;  // skipped platform
    ExpectDifferential(cluster, 0xc1057e4, 600);
  }
}

TEST(ShardRouterTest, TracedProbeRecordsShardChildSpans) {
  TestCluster cluster;
  BringUp("digraph:150,9,3", "traced", &cluster);
  if (cluster.router == nullptr) return;  // skipped platform

  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  const uint64_t trace = obs::NewTraceId();
  const uint64_t parent = recorder.NewSpanId();
  const auto& ranges = cluster.art.map.ranges;
  const NodeId from = static_cast<NodeId>(
      (ranges[0].begin + ranges[0].end) / 2);
  const NodeId to = static_cast<NodeId>(
      (ranges[2].begin + ranges[2].end) / 2);
  {
    // Stand in for the query worker: EvaluateOnWorker installs exactly
    // this context around engine evaluation.
    obs::ScopedTraceContext scoped({trace, parent});
    cluster.router->Reaches(from, to);
  }

  // The cross-shard probe fan-out landed as "probe shard=N" spans, all
  // children of the worker's span, under the one trace id. The shard
  // servers run in THIS process, so their "serve probe" spans land in
  // the same ring — parented under the router's probe span ids, exactly
  // the cross-process links the stitched cluster trace relies on.
  const std::vector<obs::Span> spans = recorder.SpansForTrace(trace);
  std::vector<obs::Span> probe_spans;
  std::vector<obs::Span> serve_spans;
  for (const obs::Span& span : spans) {
    EXPECT_EQ(span.trace_id, trace);
    if (span.name.rfind("probe shard=", 0) == 0) {
      probe_spans.push_back(span);
    } else {
      EXPECT_EQ(span.name, "serve probe") << span.name;
      serve_spans.push_back(span);
    }
  }
  ASSERT_GE(probe_spans.size(), 1u);
  EXPECT_LE(probe_spans.size(), 2u);  // forward + (optional) reverse
  std::vector<std::string> shards_probed;
  std::vector<uint64_t> probe_span_ids;
  for (const obs::Span& span : probe_spans) {
    EXPECT_EQ(span.parent_span, parent);
    EXPECT_NE(span.span_id, 0u);
    EXPECT_GE(span.dur_us, 0.0);
    shards_probed.push_back(span.name);
    probe_span_ids.push_back(span.span_id);
  }
  EXPECT_EQ(std::unique(shards_probed.begin(), shards_probed.end()),
            shards_probed.end());  // distinct shards
  ASSERT_GE(serve_spans.size(), 1u);
  for (const obs::Span& span : serve_spans) {
    EXPECT_NE(std::find(probe_span_ids.begin(), probe_span_ids.end(),
                        span.parent_span),
              probe_span_ids.end())
        << "serve span not parented under a router probe span";
  }

  // The router's Chrome-trace rendering carries the trace id.
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(trace));
  EXPECT_NE(obs::RenderChromeTrace({{"router", 1, recorder.Spans()}})
                .find(hex),
            std::string::npos);

  // Untraced probes stay out of the ring entirely.
  const uint64_t before = recorder.total_recorded();
  cluster.router->Reaches(from, to);
  EXPECT_EQ(recorder.total_recorded(), before);

  // And the per-shard probe metrics registered by the router moved.
  uint64_t probes_total = 0;
  for (size_t s = 0; s < cluster.art.map.num_shards(); ++s) {
    probes_total += obs::Registry::Global()
                        .GetCounter("gtpq_shard_probes_total{shard=\"" +
                                    std::to_string(s) + "\"}")
                        ->Value();
  }
  EXPECT_GE(probes_total, 2u);
}

TEST(ShardRouterTest, FederatedSnapshotAndStitchedClusterTrace) {
  TestCluster cluster;
  BringUp("digraph:130,5,3", "federated", &cluster);
  if (cluster.router == nullptr) return;  // skipped platform

  // Drive a little traffic so the probe counters move.
  for (NodeId v = 0; v < 20; ++v) {
    cluster.router->Reaches(v, static_cast<NodeId>(v * 3 % 100));
  }

  const auto fed = cluster.router->FederatedMetricsSnapshot();
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();

  // Per-shard copies carry shard="N"; the router's own registry comes
  // back as shard="router"; member series that were already
  // shard-labeled (the router's probe counters live in the same
  // process-global registry here) pass through un-doubled.
  uint64_t aggregate = 0;
  uint64_t labeled_sum = 0;
  bool saw_router_label = false;
  for (const auto& [name, value] : fed->counters) {
    if (name == "gtpq_queries_total") aggregate = value;
    for (size_t s = 0; s < 3; ++s) {
      if (name ==
          "gtpq_queries_total{shard=\"" + std::to_string(s) + "\"}") {
        labeled_sum += value;
      }
    }
    if (name.find("{shard=\"router\"") != std::string::npos) {
      saw_router_label = true;
    }
    EXPECT_EQ(name.find("shard=\"router\",shard="), std::string::npos)
        << name;
  }
  EXPECT_EQ(labeled_sum, aggregate);
  EXPECT_TRUE(saw_router_label);

  // Histogram federation: the unlabeled aggregate's _count equals the
  // sum of the per-shard _counts (exact bucket merge, the acceptance
  // invariant for the cluster /metrics endpoint).
  uint64_t histogram_aggregate = 0;
  uint64_t histogram_labeled_sum = 0;
  for (const auto& [name, snap] : fed->histograms) {
    if (name == "gtpq_query_latency_us") {
      histogram_aggregate = snap.TotalCount();
    } else if (name.rfind("gtpq_query_latency_us{shard=\"", 0) == 0 &&
               name.find("router") == std::string::npos) {
      histogram_labeled_sum += snap.TotalCount();
    }
  }
  EXPECT_EQ(histogram_labeled_sum, histogram_aggregate);

  // The merged snapshot renders as exposition text with the per-shard
  // labels intact.
  const std::string text = obs::RenderPrometheusSnapshot(*fed);
  EXPECT_NE(text.find("gtpq_queries_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("gtpq_shard_healthy{shard=\"1\"} 1"),
            std::string::npos);

  // Stitched cluster trace: one traced probe, then pull spans from
  // every process. Four groups (router + 3 shards) with distinct pids,
  // which RenderChromeTrace draws as four process tracks.
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  const uint64_t trace = obs::NewTraceId();
  {
    obs::ScopedTraceContext scoped({trace, recorder.NewSpanId()});
    cluster.router->Reaches(
        static_cast<NodeId>(cluster.art.map.ranges[0].begin),
        static_cast<NodeId>(cluster.art.map.ranges[2].begin));
  }
  const auto groups = cluster.router->CollectClusterSpans(trace);
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_EQ(groups->size(), 4u);
  EXPECT_EQ((*groups)[0].process_name, "router");
  std::vector<uint32_t> pids;
  for (const obs::ProcessSpans& group : *groups) {
    pids.push_back(group.pid);
  }
  std::sort(pids.begin(), pids.end());
  EXPECT_EQ(pids, (std::vector<uint32_t>{1, 2, 3, 4}));

  // Behind a NetServer (what `gteactl route` runs), the router's
  // kSpans export carries the same four groups and kMetricsSnapshot
  // the federated registry.
  std::string spec = "gtea:cluster:" + cluster.art.map_path + "@";
  for (const auto& server : cluster.servers) {
    spec += "127.0.0.1:" + std::to_string(server->port()) + ",";
  }
  spec.pop_back();
  net::NetServerOptions options;
  options.runtime.num_threads = 1;
  options.runtime.engine_spec = spec;
  net::NetServer route(cluster.g, options);
  START_OR_SKIP(route);
  net::NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", route.port()).ok());
  const auto exported = client.Spans(trace);
  ASSERT_TRUE(exported.ok()) << exported.status().ToString();
  ASSERT_EQ(exported->size(), groups->size());
  for (size_t i = 0; i < groups->size(); ++i) {
    EXPECT_EQ((*exported)[i].process_name, (*groups)[i].process_name);
    EXPECT_EQ((*exported)[i].pid, (*groups)[i].pid);
    EXPECT_EQ((*exported)[i].spans.size(), (*groups)[i].spans.size());
  }
  const auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(obs::RenderPrometheusSnapshot(*metrics).find(
                "gtpq_queries_total{shard=\"0\"}"),
            std::string::npos);
}

TEST(ShardRouterTest, HealthProberDemotesDeadShardAndFederationSkipsIt) {
  TestCluster cluster;
  // Background prober disabled: this test drives ProbeHealthOnce() by
  // hand so the threshold arithmetic is deterministic.
  BringUp("dag:90,3,3", "health", &cluster, /*health_interval_ms=*/0);
  if (cluster.router == nullptr) return;  // skipped platform

  obs::Registry& registry = obs::Registry::Global();
  cluster.router->ProbeHealthOnce();
  std::vector<bool> health = cluster.router->shard_health();
  ASSERT_EQ(health.size(), 3u);
  for (const bool healthy : health) EXPECT_TRUE(healthy);
  EXPECT_EQ(
      registry.GetGauge("gtpq_shard_healthy{shard=\"1\"}")->Value(), 1);

  const uint64_t failures_before =
      registry
          .GetCounter("gtpq_shard_health_failures_total{shard=\"1\"}")
          ->Value();
  cluster.servers[1]->Stop();

  // First failed sweep counts a failure but stays below the demotion
  // threshold (2); the second flips the gauge.
  cluster.router->ProbeHealthOnce();
  EXPECT_TRUE(cluster.router->shard_health()[1]);
  cluster.router->ProbeHealthOnce();
  health = cluster.router->shard_health();
  EXPECT_TRUE(health[0]);
  EXPECT_FALSE(health[1]);
  EXPECT_TRUE(health[2]);
  EXPECT_EQ(
      registry.GetGauge("gtpq_shard_healthy{shard=\"1\"}")->Value(), 0);
  EXPECT_GE(
      registry
          .GetCounter("gtpq_shard_health_failures_total{shard=\"1\"}")
          ->Value(),
      failures_before + 2);

  // Federation stays best-effort: the dead member is skipped (no
  // shard="1" copy of its registry), the live members still merge.
  const auto fed = cluster.router->FederatedMetricsSnapshot();
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  bool saw_shard0 = false;
  bool saw_shard1 = false;
  for (const auto& [name, value] : fed->counters) {
    if (name == "gtpq_queries_total{shard=\"0\"}") saw_shard0 = true;
    if (name == "gtpq_queries_total{shard=\"1\"}") saw_shard1 = true;
  }
  EXPECT_TRUE(saw_shard0);
  EXPECT_FALSE(saw_shard1);
}

TEST(ShardRouterTest, NativeUpdateCommitsEpochBarrier) {
  TestCluster cluster;
  BringUp("digraph:150,7,3", "update", &cluster);
  if (cluster.router == nullptr) return;  // skipped platform

  const PartitionMap& map = cluster.art.map;
  ASSERT_TRUE(cluster.router->SupportsNativeUpdates());
  const std::vector<uint64_t> before = cluster.router->shard_epochs();
  EXPECT_EQ(*std::max_element(before.begin(), before.end()), 0u);

  // A fresh intra-shard edge inside shard 1 between two non-adjacent
  // vertices.
  const NodeId lo = static_cast<NodeId>(map.ranges[1].begin);
  const NodeId hi = static_cast<NodeId>(map.ranges[1].end);
  NodeId from = lo, to = lo;
  bool found = false;
  for (NodeId u = lo; u < hi && !found; ++u) {
    for (NodeId v = lo; v < hi && !found; ++v) {
      if (u != v && !cluster.g.HasEdge(u, v)) {
        from = u;
        to = v;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);

  UpdateBatch batch;
  batch.add_edges.push_back({from, to});
  ASSERT_TRUE(cluster.router->ApplyNativeUpdate(batch).ok());

  // Every shard moved to the same epoch — the barrier holds even for
  // shards that only saw the empty commit.
  const std::vector<uint64_t> after = cluster.router->shard_epochs();
  for (const uint64_t e : after) EXPECT_EQ(e, 1u);

  // The routed cluster now answers like a sharded oracle rebuilt over
  // the updated graph.
  DataGraph updated(0);
  for (NodeId v = 0; v < cluster.g.NumNodes(); ++v) {
    updated.AddNode(cluster.g.LabelOf(v));
  }
  for (NodeId u = 0; u < cluster.g.NumNodes(); ++u) {
    for (NodeId v : cluster.g.OutNeighbors(u)) updated.AddEdge(u, v);
  }
  updated.AddEdge(from, to);
  updated.Finalize();
  TestCluster updated_view;
  updated_view.g = std::move(updated);
  updated_view.art.map = cluster.art.map;
  updated_view.router = std::move(cluster.router);
  ExpectDifferential(updated_view, 77, 500);
  cluster.router = std::move(updated_view.router);

  // Structural mutations are rejected before any shard is touched.
  UpdateBatch add_nodes;
  add_nodes.add_nodes.push_back(5);
  EXPECT_EQ(cluster.router->ApplyNativeUpdate(add_nodes).code(),
            StatusCode::kFailedPrecondition);

  const BoundaryLayout& layout = map.layout;
  ASSERT_FALSE(layout.cross_edges.empty());
  UpdateBatch cross;
  cross.add_edges.push_back(
      {layout.cross_edges[0].second, layout.cross_edges[0].first});
  EXPECT_EQ(cluster.router->ApplyNativeUpdate(cross).code(),
            StatusCode::kFailedPrecondition);

  ASSERT_FALSE(layout.boundary.empty());
  UpdateBatch remove_boundary;
  remove_boundary.remove_nodes.push_back(layout.boundary[0]);
  EXPECT_EQ(cluster.router->ApplyNativeUpdate(remove_boundary).code(),
            StatusCode::kFailedPrecondition);

  // And the epochs did not move under any rejected batch.
  const std::vector<uint64_t> still = cluster.router->shard_epochs();
  for (const uint64_t e : still) EXPECT_EQ(e, 1u);
}

// ------------------------------------------------------ set-at-a-time

/// Forwards every oracle call to `inner`, counting the set-API calls.
class CountingOracle final : public ReachabilityOracle {
 public:
  explicit CountingOracle(const ReachabilityOracle& inner) : inner_(inner) {}

  std::string_view name() const override { return inner_.name(); }
  bool Reaches(NodeId from, NodeId to) const override {
    ++point_calls;
    return inner_.Reaches(from, to);
  }
  std::unique_ptr<SetSummary> SummarizeTargets(
      std::span<const NodeId> members) const override {
    ++set_calls;
    return inner_.SummarizeTargets(members);
  }
  std::unique_ptr<SetSummary> SummarizeSources(
      std::span<const NodeId> members) const override {
    ++set_calls;
    return inner_.SummarizeSources(members);
  }
  bool ReachesSet(NodeId from, const SetSummary& targets) const override {
    ++set_calls;
    return inner_.ReachesSet(from, targets);
  }
  bool SetReaches(const SetSummary& sources, NodeId to) const override {
    ++set_calls;
    return inner_.SetReaches(sources, to);
  }
  void ReachesSetsBatch(std::span<const NodeId> sources,
                        std::span<const SetSummary* const> target_sets,
                        std::vector<std::vector<char>>* out) const override {
    ++set_calls;
    inner_.ReachesSetsBatch(sources, target_sets, out);
  }
  void SetReachesBatch(const SetSummary& sources,
                       std::span<const NodeId> targets,
                       std::vector<char>* out) const override {
    ++set_calls;
    inner_.SetReachesBatch(sources, targets, out);
  }
  std::unique_ptr<SetSummary> PrepareSuccessorTargets(
      std::span<const NodeId> targets) const override {
    ++set_calls;
    return inner_.PrepareSuccessorTargets(targets);
  }
  void SuccessorsAmong(NodeId from, const SetSummary& targets,
                       std::vector<uint32_t>* out) const override {
    ++set_calls;
    inner_.SuccessorsAmong(from, targets, out);
  }

  // Serial evaluation only: plain counters.
  mutable uint64_t set_calls = 0;
  mutable uint64_t point_calls = 0;

 private:
  const ReachabilityOracle& inner_;
};

/// A non-owning handle, so engines can share the cluster's router.
std::shared_ptr<const ReachabilityOracle> Borrow(
    const ReachabilityOracle& oracle) {
  return std::shared_ptr<const ReachabilityOracle>(
      &oracle, [](const ReachabilityOracle*) {});
}

/// Random conjunctive GTPQs over `g`, as the cluster benchmark draws them.
std::vector<Gtpq> RandomQueries(const DataGraph& g, size_t count,
                                uint64_t seed) {
  std::vector<Gtpq> queries;
  for (uint64_t i = 0; queries.size() < count && i < 64 * count; ++i) {
    QueryGenOptions options;
    options.num_nodes = 4 + i % 3;
    options.pc_probability = 0.2;
    options.output_fraction = 0.6;
    options.seed = seed + i;
    auto q = GenerateRandomQuery(g, options);
    if (q.has_value()) queries.push_back(std::move(*q));
  }
  return queries;
}

uint64_t ProbesServed(const TestCluster& cluster) {
  uint64_t total = 0;
  for (const auto& server : cluster.servers) {
    total += server->counters().probes_served;
  }
  return total;
}

TEST(ShardRouterTest, GteaOverRouterMatchesUnpartitionedEngine) {
  TestCluster cluster;
  BringUp("digraph:240,17,3", "gtea", &cluster, /*health_interval_ms=*/0);
  if (cluster.router == nullptr) return;  // skipped platform

  const std::vector<Gtpq> queries = RandomQueries(cluster.g, 32, 9001);
  ASSERT_EQ(queries.size(), 32u);
  GteaOptions options;
  options.result_limit = 64;
  GteaEngine reference(cluster.g);
  std::vector<QueryResult> expected;
  for (const Gtpq& q : queries) {
    expected.push_back(reference.Evaluate(q, options));
  }
  // Each thread runs its own engine over the one shared router, so the
  // router's summaries and shard connections serve several threads at
  // once, as they do under a QueryServer pool.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      GteaEngine routed(cluster.g, Borrow(*cluster.router));
      for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(routed.Evaluate(queries[i], options), expected[i])
            << "query " << i << " on thread " << t;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

TEST(ShardRouterTest, OneFramePerShardPerSetCallAndSpansFitTheRing) {
  TestCluster cluster;
  BringUp("digraph:300,23,3", "frames", &cluster, /*health_interval_ms=*/0);
  if (cluster.router == nullptr) return;  // skipped platform

  const std::vector<Gtpq> queries = RandomQueries(cluster.g, 1, 4242);
  ASSERT_EQ(queries.size(), 1u);
  CountingOracle counting(*cluster.router);
  GteaEngine engine(cluster.g, Borrow(counting));
  GteaOptions options;
  options.result_limit = 64;

  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  const uint64_t trace = obs::NewTraceId();
  const uint64_t probes_before = ProbesServed(cluster);
  const uint64_t spans_before = recorder.total_recorded();
  QueryResult traced;
  {
    obs::ScopedTraceContext scoped({trace, recorder.NewSpanId()});
    traced = engine.Evaluate(queries[0], options);
  }
  const uint64_t frames = ProbesServed(cluster) - probes_before;
  const uint64_t spans = recorder.total_recorded() - spans_before;

  GteaEngine reference(cluster.g);
  EXPECT_EQ(traced, reference.Evaluate(queries[0], options));
  EXPECT_EQ(counting.point_calls, 0u);
  ASSERT_GT(counting.set_calls, 0u);
  EXPECT_GT(frames, 0u);
  EXPECT_LE(frames, counting.set_calls * cluster.art.map.num_shards())
      << counting.set_calls << " set calls";
  // Router and shard spans share this process's ring here: every span
  // the query recorded is still in it.
  EXPECT_LE(spans, obs::TraceRecorder::kCapacity);
  const std::vector<obs::Span> recorded = recorder.SpansForTrace(trace);
  EXPECT_EQ(recorded.size(), spans);

  // Every shard probe hangs under the GTEA stage that issued it.
  std::set<std::string> stage_names;
  for (size_t s = 0; s < kNumStages; ++s) {
    stage_names.insert(StageName(static_cast<Stage>(s)));
  }
  std::set<uint64_t> stage_spans;
  for (const obs::Span& span : recorded) {
    if (stage_names.count(span.name) != 0) stage_spans.insert(span.span_id);
  }
  size_t probe_spans = 0;
  for (const obs::Span& span : recorded) {
    if (span.name.rfind("probe shard=", 0) != 0) continue;
    ++probe_spans;
    EXPECT_EQ(stage_spans.count(span.parent_span), 1u) << span.name;
  }
  EXPECT_GT(probe_spans, 0u);
}

TEST(ShardRouterTest, StoppedShardCountsProbeFailures) {
  TestCluster cluster;
  BringUp("digraph:150,31,3", "failures", &cluster,
          /*health_interval_ms=*/0);
  if (cluster.router == nullptr) return;  // skipped platform
  // One connect attempt per probe, so each reconnect to the stopped
  // shard costs one refused connect instead of the restart budget.
  ShardRouterTestPeer::SetProbeConnectAttempts(*cluster.router, 1);

  obs::Counter* failures = obs::Registry::Global().GetCounter(
      "gtpq_shard_probe_failures_total{shard=\"1\"}");
  const uint64_t before = failures->Value();
  cluster.servers[1]->Stop();

  const std::vector<Gtpq> queries = RandomQueries(cluster.g, 1, 77);
  ASSERT_EQ(queries.size(), 1u);
  GteaEngine routed(cluster.g, Borrow(*cluster.router));
  routed.Evaluate(queries[0]);
  // A summary over every vertex needs shard 1's answers.
  std::vector<NodeId> all(cluster.g.NumNodes());
  std::iota(all.begin(), all.end(), NodeId{0});
  cluster.router->SummarizeTargets(all);
  EXPECT_GT(failures->Value(), before);
}

TEST(ShardRouterTest, ShardServerAnswersMatrixAndRejectsOutOfRangePivot) {
  TestCluster cluster;
  BringUp("digraph:90,5,3", "probe_server", &cluster,
          /*health_interval_ms=*/0);
  if (cluster.router == nullptr) return;  // skipped platform

  const DataGraph& local = cluster.shard_graphs[0];
  const NodeId n = static_cast<NodeId>(local.NumNodes());
  const TransitiveClosure closure = TransitiveClosure::Build(local.graph());
  net::NetClient client;
  ASSERT_TRUE(net::ConnectWithRetry(&client, "127.0.0.1",
                                    cluster.servers[0]->port())
                  .ok());
  for (const bool reverse : {false, true}) {
    net::ProbeRequest request;
    request.reverse = reverse;
    request.pivots = {0, static_cast<NodeId>(n / 2), n - 1};
    for (NodeId v = n; v-- > 0;) request.ids.push_back(v);  // unsorted
    auto result = client.Probe(request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (size_t r = 0; r < request.pivots.size(); ++r) {
      for (size_t c = 0; c < request.ids.size(); ++c) {
        const NodeId p = request.pivots[r];
        const NodeId id = request.ids[c];
        EXPECT_EQ(result->Get(r, c),
                  reverse ? closure.Reaches(id, p) : closure.Reaches(p, id))
            << reverse << " " << p << " " << id;
      }
    }
  }
  auto rejected = client.Probe({false, {0, n}, {0}});
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("pivot"), std::string::npos);
  // The connection survives a rejected probe.
  EXPECT_TRUE(client.Probe({false, {0}, {1}}).ok());

  // Repeated ids are legal, so an 8 MiB request can ask 2^40 answers
  // (128 GiB of bitmask). The server must refuse it before allocating.
  net::ProbeRequest huge;
  huge.pivots.assign(size_t{1} << 20, 0);
  huge.ids.assign(size_t{1} << 20, 0);
  auto oversized = client.Probe(huge);
  EXPECT_EQ(oversized.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(oversized.status().message().find("answer limit"),
            std::string::npos)
      << oversized.status().ToString();
  EXPECT_TRUE(client.Probe({false, {0}, {1}}).ok());
}

TEST(ShardRouterTest, SplitsProbesLargerThanTheFrameLimit) {
  // A 512-byte frame holds 3800 answers and 116 listed nodes, so a
  // summary over every vertex needs several tiles per shard.
  cluster::ShardRouterOptions options;
  options.limits.max_frame_bytes = 512;
  TestCluster cluster;
  BringUp("digraph:300,23,3", "tiles", &cluster, /*health_interval_ms=*/0,
          options);
  if (cluster.router == nullptr) return;  // skipped platform
  const ShardRouter& router = *cluster.router;
  const TransitiveClosure closure =
      TransitiveClosure::Build(cluster.g.graph());
  const NodeId n = static_cast<NodeId>(cluster.g.NumNodes());
  std::vector<NodeId> all(n);
  std::iota(all.begin(), all.end(), NodeId{0});

  const uint64_t frames_before = ProbesServed(cluster);
  const auto targets = router.SummarizeTargets(all);
  EXPECT_GT(ProbesServed(cluster) - frames_before,
            cluster.art.map.num_shards())
      << "the summary fit one frame per shard; nothing was tiled";
  const auto sources = router.SummarizeSources(all);
  const auto prepared = router.PrepareSuccessorTargets(all);
  const ReachabilityOracle::SetSummary* sets[] = {targets.get()};
  std::vector<std::vector<char>> down;
  router.ReachesSetsBatch(all, sets, &down);
  std::vector<char> up;
  router.SetReachesBatch(*sources, all, &up);
  for (NodeId v = 0; v < n; ++v) {
    bool reaches_any = false;
    bool reached_by_any = false;
    for (NodeId w = 0; w < n; ++w) {
      reaches_any |= closure.Reaches(v, w);
      reached_by_any |= closure.Reaches(w, v);
    }
    ASSERT_EQ(down[0][v] != 0, reaches_any) << "ReachesSetsBatch at " << v;
    ASSERT_EQ(up[v] != 0, reached_by_any) << "SetReachesBatch at " << v;
  }
  for (NodeId v = 0; v < n; v += 7) {
    std::vector<uint32_t> successors;
    router.SuccessorsAmong(v, *prepared, &successors);
    std::vector<uint32_t> expected;
    for (NodeId w = 0; w < n; ++w) {
      if (closure.Reaches(v, w)) expected.push_back(w);
    }
    ASSERT_EQ(successors, expected) << "SuccessorsAmong at " << v;
  }
  ExpectSetApiMatches(router, closure, cluster.art.map, 0x711e5, 12);
  // Routed updates re-probe a shard's contribution under the same
  // limit: drop an intra-shard edge and put it back.
  const ShardRange& range = cluster.art.map.ranges[0];
  UpdateBatch drop;
  for (NodeId v = range.begin; v < range.end && drop.NumOps() == 0; ++v) {
    for (const NodeId w : cluster.g.graph().OutNeighbors(v)) {
      if (w >= range.begin && w < range.end) {
        drop.remove_edges.push_back({v, w});
        break;
      }
    }
  }
  ASSERT_EQ(drop.NumOps(), 1u);
  UpdateBatch restore;
  restore.add_edges = drop.remove_edges;
  const uint64_t refresh_before = ProbesServed(cluster);
  ASSERT_TRUE(router.ApplyNativeUpdate(drop).ok());
  ASSERT_TRUE(router.ApplyNativeUpdate(restore).ok());
  EXPECT_GT(ProbesServed(cluster) - refresh_before, 2u);
  for (NodeId v = 0; v < n; v += 11) {
    for (NodeId w = 0; w < n; w += 5) {
      ASSERT_EQ(router.Reaches(v, w), closure.Reaches(v, w))
          << v << " -> " << w;
    }
  }
}

}  // namespace
}  // namespace gtpq

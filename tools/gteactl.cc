// gteactl — build, inspect, verify, and incrementally update persisted
// reachability indexes.
//
//   gteactl build   (--graph=<file> | --gen=<spec>) [--index=<spec>]
//                   --out=<path>
//   gteactl inspect <index-file>
//   gteactl verify  <index-file> (--graph=<file> | --gen=<spec>)
//                   [--probes=<n>] [--seed=<s>]
//   gteactl apply   <index-file> --updates=<file>
//                   (--graph=<file> | --gen=<spec>) --out=<path>
//                   --graph-out=<path>
//   gteactl serve   (--graph=<file> | --gen=<spec>) [--index=<spec> |
//                   --engine=<spec>] [--port=<p>] [--bind=<addr>]
//                   [--threads=<n>] [--coalesce=<n>] [--window-us=<x>]
//   gteactl query   --connect=<host:port> (--file=<query-file> |
//                   --text=<query>) [--limit=<n>] [--trace]
//   gteactl apply   --connect=<host:port> --updates=<file>
//   gteactl metrics --connect=<host:port> [--out=<file>]
//   gteactl trace   --connect=<host:port> [--id=<hex>] [--out=<file>]
//   gteactl slowlog --connect=<host:port> [--out=<file>]
//   gteactl top     --connect=<host:port> [--interval=<sec>]
//                   [--count=<n>]
//   gteactl partition (--graph=<file> | --gen=<spec>) --out=<dir>
//                   [--shards=<n>] [--inner=<spec>]
//                   [--endpoints=<ep1,ep2,...>] [--no-degree-aware]
//   gteactl route   --map=<file.gtpqmap> (--graph=<file> | --gen=<spec>)
//                   [--endpoints=<ep1,ep2,...>] [--port=<p>]
//                   [--bind=<addr>] [--threads=<n>] [--coalesce=<n>]
//                   [--window-us=<x>]
//
// Graph sources:
//   --graph=<file>  a "gtpq-graph v2" text file (graph/graph_io.h)
//   --gen=<spec>    a deterministic generator, so `verify` can
//                   reproduce the exact graph an index was built from:
//                     xmark:<scale>                  workload XMark tree
//                     dag:<nodes>[,<seed>[,<deg>]]   random DAG
//                     digraph:<nodes>[,<seed>[,<deg>]] cycles allowed
//                     tree:<nodes>[,<seed>]          tree + cross edges
//
// `build` writes a versioned, checksummed ".gtpqidx" file for any
// MakeReachabilityIndex spec (decorators included). `inspect` dumps the
// validated header without parsing the payload. `verify` reloads the
// index, enforces the graph fingerprint, and spot-checks whole
// reachability rows against a BFS ground truth. `apply` replays a
// "gtpq-updates v1" file (dynamic/update_io.h) offline: it checks the
// index header against the graph, runs each batch through the graph
// step the serving runtime uses (so removed ids stay dead), then writes
// the updated graph to --graph-out and a freshly built index of the
// header's spec, stamped with the updated graph's fingerprint, to
// --out.
//
// `serve` exposes the engine over gtpq-wire (net/server.h): an
// epoll front-end coalescing pipelined queries into snapshot-pinned
// batches, with APPLY_UPDATES folding into the live epoch chain. The
// `--connect=` subcommands (`query`, `apply`, `metrics`, `trace`,
// `slowlog`, `top`) are thin net/client.h wrappers, so a built index
// can be served from one shell and queried/updated/observed from
// another: `metrics` renders the server's binary metrics snapshot
// (every serving counter, the per-stage latency histograms and the
// epoch) as Prometheus text exposition, `trace` renders its span
// ring as Chrome trace-event JSON (load it at chrome://tracing), and
// `slowlog` prints the worst-query ring with per-stage timings.
// Against a `route` front-end, `metrics` and `trace` return
// CLUSTER-wide views: the router pulls every shard's binary
// snapshot/span groups and merges them (per-shard shard="N" labels
// plus exact cluster aggregates; one stitched multi-process Chrome
// trace). `query --trace` stamps the request with a fresh trace id so
// `trace --id=<hex>` can pull exactly that request's spans, and `top`
// turns successive federated snapshots into a live per-shard
// QPS/latency/health dashboard.
// A global `--quiet` drops log output below error level. Each
// subcommand accepts only its own flags: any other argument, such as a
// misspelt flag, exits 2 with the usage text before any work.
//
// `partition` splits a graph into contiguous vertex shards
// (degree-aware cuts by default), writing per-shard graphs + indexes
// and a ".gtpqmap" (cluster/partition_map.h). Each shard is then a
// plain `gteactl serve --graph=shardK.graph --index=file:shardK
// .gtpqidx`; `route` runs the scatter-gather front-end
// (cluster/shard_router.h) over those servers, speaking the same
// gtpq-wire protocol so existing clients and benches work unchanged.
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/partition.h"
#include "cluster/partition_map.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "dynamic/graph_delta.h"
#include "dynamic/update_io.h"
#include "graph/algorithms.h"
#include "graph/data_graph.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/federation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reachability/factory.h"
#include "storage/index_io.h"
#include "workload/graph_gen_spec.h"
#include "workload/xmark.h"

namespace gtpq {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  gteactl build   (--graph=<file> | --gen=<spec>) [--index=<spec>] "
      "--out=<path>\n"
      "  gteactl inspect <index-file> [--mmap]\n"
      "  gteactl verify  <index-file> (--graph=<file> | --gen=<spec>) "
      "[--probes=<n>] [--seed=<s>]\n"
      "  gteactl apply   <index-file> --updates=<file> (--graph=<file> | "
      "--gen=<spec>)\n"
      "                  --out=<path> --graph-out=<path>\n"
      "  gteactl serve   (--graph=<file> | --gen=<spec>) [--index=<spec> | "
      "--engine=<spec>]\n"
      "                  [--mmap] [--port=<p>] [--bind=<addr>] "
      "[--threads=<n>]\n"
      "                  [--coalesce=<n>] [--window-us=<x>]\n"
      "  gteactl query   --connect=<host:port> (--file=<query-file> | "
      "--text=<query>)\n"
      "                  [--limit=<n>] [--trace]\n"
      "  gteactl apply   --connect=<host:port> --updates=<file>\n"
      "  gteactl metrics --connect=<host:port> [--out=<file>]\n"
      "  gteactl trace   --connect=<host:port> [--id=<hex-trace-id>] "
      "[--out=<file>]\n"
      "  gteactl slowlog --connect=<host:port> [--out=<file>]\n"
      "  gteactl top     --connect=<host:port> [--interval=<sec>] "
      "[--count=<n>]\n"
      "  gteactl partition (--graph=<file> | --gen=<spec>) --out=<dir>\n"
      "                  [--shards=<n>] [--inner=<spec>]\n"
      "                  [--endpoints=<ep1,ep2,...>] [--no-degree-aware]\n"
      "  gteactl route   --map=<file.gtpqmap> (--graph=<file> | "
      "--gen=<spec>)\n"
      "                  [--endpoints=<ep1,ep2,...>] [--port=<p>] "
      "[--bind=<addr>]\n"
      "                  [--threads=<n>] [--coalesce=<n>] "
      "[--window-us=<x>]\n"
      "\n"
      "generator specs: xmark:<scale> | dag:<nodes>[,<seed>[,<deg>]] |\n"
      "                 digraph:<nodes>[,<seed>[,<deg>]] | "
      "tree:<nodes>[,<seed>]\n"
      "index specs:     any MakeReachabilityIndex spec (contour, "
      "three_hop,\n"
      "                 interval, sspi, chain_cover, transitive_closure,\n"
      "                 sharded:<spec>, file:<path>, mmap:<path>; serve\n"
      "                 --mmap rewrites a file: index to the zero-copy\n"
      "                 mmap: loader)\n"
      "global flags:    --quiet (suppress log output below error level)\n"
      "An argument a subcommand does not accept exits 2.\n");
  return 2;
}

std::optional<std::string> FlagValue(int argc, char** argv,
                                     const char* prefix) {
  const size_t len = std::strlen(prefix);
  std::optional<std::string> value;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, len) == 0) value = argv[i] + len;
  }
  return value;
}

/// A subcommand: its entry point and what it accepts besides the global
/// --quiet: the path of the file it works on first (when `path`), then
/// `flags`, where a flag ending in '=' takes a value and any other must
/// match whole.
struct Subcommand {
  int (*run)(int argc, char** argv);
  bool path = false;
  std::vector<std::string_view> flags;
};

/// The exact-match check bench/harness.h's RejectUnknownFlags makes;
/// complains and returns false on an argument `command` does not accept.
bool OnlyAccepted(int argc, char** argv, const Subcommand& command) {
  if (command.path && (argc < 3 || argv[2][0] == '-')) return false;
  for (int i = command.path ? 3 : 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg != "--quiet" &&
        std::none_of(command.flags.begin(), command.flags.end(),
                     [arg](std::string_view flag) {
                       return flag.ends_with('=') ? arg.starts_with(flag)
                                                  : arg == flag;
                     })) {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[1], argv[i]);
      return false;
    }
  }
  return true;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Validated "--flag=<n>" parse into [min, max]; leaves *out untouched
/// when the flag is absent. On junk (a sign, trailing characters, out
/// of range) it complains as `command` and reports false instead of
/// truncating, wrapping, or feeding zero into a GTPQ_CHECK downstream.
bool ParseBoundedFlag(int argc, char** argv, const char* command,
                      const char* flag, unsigned long long min,
                      unsigned long long max, unsigned long long* out) {
  const auto value = FlagValue(argc, argv, flag);
  if (!value.has_value()) return true;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed =
      std::strtoull(value->c_str(), &end, 10);
  // (*value)[0] is '\0' for an empty value, so this rejects that too.
  if (!std::isdigit(static_cast<unsigned char>((*value)[0])) ||
      errno == ERANGE || end != value->c_str() + value->size() ||
      parsed < min || parsed > max) {
    std::fprintf(stderr,
                 "%s: %s wants an integer in [%llu, %llu], got '%s'\n",
                 command, flag, min, max, value->c_str());
    return false;
  }
  *out = parsed;
  return true;
}

/// Rewrites the trailing "file:<path>" loader of an oracle spec (bare or
/// under decorators) to the zero-copy "mmap:<path>" loader. Returns
/// false when the spec has no file: loader to rewrite.
bool RewriteFileSpecToMmap(std::string* spec) {
  if (spec->rfind("mmap:", 0) == 0 ||
      spec->find(":mmap:") != std::string::npos) {
    return true;  // already zero-copy
  }
  size_t pos = 0;
  if (spec->rfind("file:", 0) != 0) {
    const size_t mid = spec->find(":file:");
    if (mid == std::string::npos) return false;
    pos = mid + 1;
  }
  spec->replace(pos, 5, "mmap:");
  return true;
}

Result<DataGraph> ResolveGraph(int argc, char** argv) {
  const auto graph_flag = FlagValue(argc, argv, "--graph=");
  const auto gen_flag = FlagValue(argc, argv, "--gen=");
  if (graph_flag.has_value() == gen_flag.has_value()) {
    return Status::InvalidArgument(
        "exactly one of --graph= and --gen= is required");
  }
  if (graph_flag.has_value()) return LoadDataGraphFromFile(*graph_flag);
  return workload::GenerateGraphFromSpec(*gen_flag);
}

void PrintInfo(const storage::IndexFileInfo& info) {
  std::printf("format version : v%u\n", info.format_version);
  std::printf("backend spec   : %s\n", info.spec.c_str());
  std::printf("fingerprint    : %016llx\n",
              static_cast<unsigned long long>(info.graph_fingerprint));
  std::printf("graph          : %s nodes, %s edges\n",
              FormatWithCommas(static_cast<long long>(info.num_nodes))
                  .c_str(),
              FormatWithCommas(static_cast<long long>(info.num_edges))
                  .c_str());
  std::printf("payload        : %s bytes\n",
              FormatWithCommas(static_cast<long long>(info.payload_bytes))
                  .c_str());
  std::printf("file           : %s bytes (%s header+prologue)\n",
              FormatWithCommas(static_cast<long long>(info.file_bytes))
                  .c_str(),
              FormatWithCommas(static_cast<long long>(
                                   info.file_bytes - info.payload_bytes))
                  .c_str());
}

int RunBuild(int argc, char** argv) {
  const auto out = FlagValue(argc, argv, "--out=");
  if (!out.has_value() || out->empty()) {
    std::fprintf(stderr, "build: --out=<path> is required\n");
    return Usage();
  }
  const std::string index_spec =
      FlagValue(argc, argv, "--index=").value_or("contour");
  auto graph = ResolveGraph(argc, argv);
  if (!graph.ok()) {
    std::fprintf(stderr, "build: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  const DataGraph& g = graph.ValueOrDie();
  std::printf("graph: %zu nodes, %zu edges\n", g.NumNodes(), g.NumEdges());

  Timer build_timer;
  auto oracle =
      MakeReachabilityIndex(std::string_view(index_spec), g.graph());
  if (oracle == nullptr) {
    std::fprintf(stderr, "build: invalid reachability spec '%s'\n",
                 index_spec.c_str());
    return 1;
  }
  const double build_ms = build_timer.ElapsedMillis();

  Timer save_timer;
  const Status saved =
      storage::SaveReachabilityIndex(*oracle, g.graph(), *out);
  if (!saved.ok()) {
    std::fprintf(stderr, "build: %s\n", saved.ToString().c_str());
    return 1;
  }
  const double save_ms = save_timer.ElapsedMillis();

  auto info = storage::InspectReachabilityIndex(*out);
  if (!info.ok()) {
    std::fprintf(stderr, "build: wrote an unreadable file?! %s\n",
                 info.status().ToString().c_str());
    return 1;
  }
  PrintInfo(info.ValueOrDie());
  std::printf("build          : %.1f ms\n", build_ms);
  std::printf("save           : %.1f ms\n", save_ms);
  std::printf("wrote %s\n", out->c_str());
  return 0;
}

int InspectPartitionMap(const std::string& path) {
  auto map = cluster::LoadPartitionMap(path);
  if (!map.ok()) {
    std::fprintf(stderr, "inspect: %s\n", map.status().ToString().c_str());
    return 1;
  }
  std::printf("partition map  : v%u, %zu shard(s), inner spec %s\n",
              cluster::kMapFormatVersion, map->num_shards(),
              map->inner_spec.c_str());
  std::printf("fingerprint    : %016llx\n",
              static_cast<unsigned long long>(map->graph_fingerprint));
  std::printf("graph          : %s nodes, %s edges\n",
              FormatWithCommas(static_cast<long long>(map->num_nodes))
                  .c_str(),
              FormatWithCommas(static_cast<long long>(map->num_edges))
                  .c_str());
  std::printf("boundary       : %zu vertex(es), %zu cross edge(s)\n",
              map->layout.boundary.size(), map->layout.cross_edges.size());
  for (size_t s = 0; s < map->num_shards(); ++s) {
    std::printf("shard %-2zu       : [%llu, %llu) %s nodes, endpoint %s, "
                "index fingerprint %016llx\n",
                s, static_cast<unsigned long long>(map->ranges[s].begin),
                static_cast<unsigned long long>(map->ranges[s].end),
                FormatWithCommas(static_cast<long long>(
                                     map->ranges[s].end -
                                     map->ranges[s].begin))
                    .c_str(),
                map->endpoints[s].empty() ? "(unset)"
                                          : map->endpoints[s].c_str(),
                static_cast<unsigned long long>(
                    map->shard_fingerprints[s]));
  }
  return 0;
}

int RunInspect(int argc, char** argv) {
  if (storage::HasMagic(argv[2], cluster::kMapMagic)) {
    return InspectPartitionMap(argv[2]);
  }
  auto info = storage::InspectReachabilityIndex(argv[2]);
  if (!info.ok()) {
    std::fprintf(stderr, "inspect: %s\n",
                 info.status().ToString().c_str());
    return 1;
  }
  PrintInfo(info.ValueOrDie());
  if (HasFlag(argc, argv, "--mmap")) {
    // Full zero-copy parse over a read-only mapping: proves the payload
    // is servable through mmap:, not just that the header checks out.
    Timer map_timer;
    auto view = storage::LoadReachabilityIndexView(argv[2]);
    if (!view.ok()) {
      std::fprintf(stderr, "inspect: %s\n",
                   view.status().ToString().c_str());
      return 1;
    }
    std::printf("mmap           : zero-copy parse OK (%s) in %.1f ms\n",
                std::string((*view)->name()).c_str(),
                map_timer.ElapsedMillis());
  }
  return 0;
}

int RunVerify(int argc, char** argv) {
  const std::string path = argv[2];
  unsigned long long probes = 64, seed = 1;
  if (!ParseBoundedFlag(argc, argv, "verify", "--probes=", 1, ULLONG_MAX,
                        &probes) ||
      !ParseBoundedFlag(argc, argv, "verify", "--seed=", 0, ULLONG_MAX,
                        &seed)) {
    return 1;
  }
  auto graph = ResolveGraph(argc, argv);
  if (!graph.ok()) {
    std::fprintf(stderr, "verify: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  const DataGraph& g = graph.ValueOrDie();

  Timer load_timer;
  auto loaded = storage::LoadReachabilityIndex(path, g.graph());
  if (!loaded.ok()) {
    std::fprintf(stderr, "verify: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const double load_ms = load_timer.ElapsedMillis();
  const auto& oracle = *loaded.ValueOrDie();

  const size_t n = g.NumNodes();
  probes = std::min<unsigned long long>(probes, n);

  // Each probe checks one whole source row against BFS ground truth —
  // self-reachability semantics included (a BFS hit on the source means
  // it sits on a cycle).
  Rng rng(seed);
  size_t checked = 0, mismatches = 0;
  for (size_t i = 0; i < probes; ++i) {
    const NodeId src = static_cast<NodeId>(rng.NextBounded(n));
    std::vector<char> truth(n, 0);
    bool self = false;
    for (NodeId v : ReachableFrom(g.graph(), src)) {
      if (v == src) self = true;
      truth[v] = 1;
    }
    truth[src] = self ? 1 : 0;
    for (NodeId to = 0; to < n; ++to) {
      ++checked;
      if (oracle.Reaches(src, to) != (truth[to] != 0)) {
        ++mismatches;
        if (mismatches <= 5) {
          std::fprintf(stderr,
                       "verify: MISMATCH Reaches(%u, %u): index says %d, "
                       "BFS says %d\n",
                       src, to, oracle.Reaches(src, to) ? 1 : 0,
                       truth[to] != 0 ? 1 : 0);
        }
      }
    }
  }

  std::printf("loaded '%s' (%s) in %.1f ms\n", path.c_str(),
              std::string(oracle.name()).c_str(), load_ms);
  std::printf("%llu probe rows, %s pair checks, %zu mismatches\n", probes,
              FormatWithCommas(static_cast<long long>(checked)).c_str(),
              mismatches);
  if (mismatches > 0) {
    std::fprintf(stderr, "verify: FAILED\n");
    return 1;
  }
  std::printf("verify: OK\n");
  return 0;
}

int RunApply(int argc, char** argv) {
  const std::string path = argv[2];
  const auto updates_path = FlagValue(argc, argv, "--updates=");
  const auto out = FlagValue(argc, argv, "--out=");
  const auto graph_out = FlagValue(argc, argv, "--graph-out=");
  if (!updates_path.has_value() || !out.has_value() || out->empty() ||
      !graph_out.has_value() || graph_out->empty()) {
    std::fprintf(stderr,
                 "apply: --updates=<file>, --out=<path> and "
                 "--graph-out=<path> are required\n");
    return Usage();
  }

  auto graph = ResolveGraph(argc, argv);
  if (!graph.ok()) {
    std::fprintf(stderr, "apply: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  DataGraph current = graph.TakeValue();
  const size_t nodes_before = current.NumNodes();
  const size_t edges_before = current.NumEdges();

  // Only the header matters: the updated graph gets a fresh index of
  // the same spec, so the old payload is never parsed.
  auto info = storage::InspectReachabilityIndex(path);
  if (!info.ok()) {
    std::fprintf(stderr, "apply: %s\n", info.status().ToString().c_str());
    return 1;
  }
  if (info->graph_fingerprint != storage::GraphFingerprint(current.graph())) {
    std::fprintf(stderr, "apply: %s was built for a different graph\n",
                 path.c_str());
    return 1;
  }
  if (!IsValidReachabilitySpec(info->spec)) {
    std::fprintf(stderr, "apply: %s names spec '%s', which cannot be "
                 "rebuilt\n", path.c_str(), info->spec.c_str());
    return 1;
  }

  auto batches = LoadUpdateBatchesFromFile(*updates_path);
  if (!batches.ok()) {
    std::fprintf(stderr, "apply: %s\n",
                 batches.status().ToString().c_str());
    return 1;
  }
  Timer apply_timer;
  size_t ops = 0;
  for (size_t i = 0; i < batches->size(); ++i) {
    // The graph step the serving runtime takes: a tombstone label from
    // an earlier run (carried by the input graph) keeps its id dead.
    auto next = ApplyUpdateBatch(current, (*batches)[i]);
    if (!next.ok()) {
      std::fprintf(stderr, "apply: batch %zu: %s\n", i,
                   next.status().ToString().c_str());
      return 1;
    }
    current = next.TakeValue();
    ops += (*batches)[i].NumOps();
  }
  const double apply_ms = apply_timer.ElapsedMillis();

  Timer build_timer;
  auto oracle = MakeReachabilityIndex(std::string_view(info->spec),
                                      current.graph());
  if (oracle == nullptr) {
    std::fprintf(stderr, "apply: cannot rebuild '%s' over the updated "
                 "graph\n", info->spec.c_str());
    return 1;
  }
  const double build_ms = build_timer.ElapsedMillis();
  // Both saves replace their target atomically: a live server mapping
  // (or re-reading) the old file keeps its pinned inode.
  Status saved = SaveDataGraphToFile(current, *graph_out);
  if (saved.ok()) {
    saved = storage::SaveReachabilityIndex(*oracle, current.graph(), *out);
  }
  if (!saved.ok()) {
    std::fprintf(stderr, "apply: %s\n", saved.ToString().c_str());
    return 1;
  }

  std::printf("applied %zu batches (%zu ops) in %.1f ms, rebuilt '%s' "
              "in %.1f ms\n",
              batches->size(), ops, apply_ms, info->spec.c_str(), build_ms);
  std::printf("graph          : %zu -> %zu nodes, %zu -> %zu edges\n",
              nodes_before, current.NumNodes(), edges_before,
              current.NumEdges());
  auto written = storage::InspectReachabilityIndex(*out);
  if (!written.ok()) {
    std::fprintf(stderr, "apply: wrote an unreadable file?! %s\n",
                 written.status().ToString().c_str());
    return 1;
  }
  PrintInfo(written.ValueOrDie());
  std::printf("wrote %s and %s\n", out->c_str(), graph_out->c_str());
  return 0;
}

// ------------------------------------------------ network subcommands

std::unique_ptr<net::NetClient> ConnectFlag(int argc, char** argv,
                                            const char* command) {
  const auto connect = FlagValue(argc, argv, "--connect=");
  std::string host;
  uint16_t port = 0;
  if (!connect.has_value()) {
    std::fprintf(stderr, "%s: --connect=<host:port> is required\n",
                 command);
    return nullptr;
  }
  if (!net::ParseHostPort(*connect, &host, &port)) {
    std::fprintf(stderr,
                 "%s: malformed --connect address '%s' (want "
                 "<host:port> with a numeric port in [1, 65535])\n",
                 command, connect->c_str());
    return nullptr;
  }
  auto client = std::make_unique<net::NetClient>();
  const Status st = client->Connect(host, port);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", command, st.ToString().c_str());
    return nullptr;
  }
  return client;
}

std::atomic<bool> g_serve_stop{false};
void HandleServeSignal(int) { g_serve_stop.store(true); }

/// Parses the serve/route-shared listener flags into `options`; false
/// (after a complaint) on junk.
bool ParseServeOptions(int argc, char** argv, const char* command,
                       net::NetServerOptions* options) {
  unsigned long long port = options->port;
  unsigned long long threads = options->runtime.num_threads;
  unsigned long long coalesce = options->coalesce_max_queries;
  if (!ParseBoundedFlag(argc, argv, command, "--port=", 0, 65535, &port) ||
      !ParseBoundedFlag(argc, argv, command, "--threads=", 1, 1024,
                        &threads) ||
      !ParseBoundedFlag(argc, argv, command, "--coalesce=", 1, 1u << 20,
                        &coalesce)) {
    return false;
  }
  options->port = static_cast<uint16_t>(port);
  options->runtime.num_threads = static_cast<size_t>(threads);
  options->coalesce_max_queries = static_cast<size_t>(coalesce);
  if (auto bind = FlagValue(argc, argv, "--bind=")) {
    options->bind_address = *bind;
  }
  if (auto window = FlagValue(argc, argv, "--window-us=")) {
    char* end = nullptr;
    options->coalesce_window_us = std::strtod(window->c_str(), &end);
    // The dispatcher casts the remaining window to an integer wait, so
    // nan, inf and huge values must not get through.
    if (window->empty() || end != window->c_str() + window->size() ||
        !std::isfinite(options->coalesce_window_us) ||
        options->coalesce_window_us < 0 ||
        options->coalesce_window_us > 1e6) {
      std::fprintf(stderr, "%s: --window-us= wants a number in "
                           "[0, 1000000], got '%s'\n",
                   command, window->c_str());
      return false;
    }
  }
  return true;
}

/// Start + signal-wait + stop + stat line — the tail every wire
/// front-end (serve, route) shares.
int ServeLoop(const DataGraph& g, const net::NetServerOptions& options,
              const char* command) {
  net::NetServer server(g, options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s: %s\n", command, started.ToString().c_str());
    return 1;
  }
  std::printf("gtpq-wire v%u serving on %s:%u — engine %s, %zu worker "
              "thread(s)\n",
              net::kWireVersion, options.bind_address.c_str(), server.port(),
              server.runtime().engine_name().c_str(),
              server.runtime().num_threads());
  std::fflush(stdout);

  std::signal(SIGINT, HandleServeSignal);
  std::signal(SIGTERM, HandleServeSignal);
  while (!g_serve_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();

  // This process runs one front-end, so its registry counters are the
  // server's own.
  obs::Registry& reg = obs::Registry::Global();
  const auto count = [&reg](const char* name) {
    return static_cast<unsigned long long>(reg.GetCounter(name)->Value());
  };
  std::printf("shutting down at epoch %llu: served %llu queries in %llu "
              "dispatched batch(es), %llu update(s), %llu connection(s), "
              "%llu overload rejection(s), %llu protocol error(s)\n",
              static_cast<unsigned long long>(server.runtime().epoch()),
              static_cast<unsigned long long>(
                  server.runtime().serving_stats().queries),
              static_cast<unsigned long long>(
                  server.counters().batches_dispatched),
              count("gtpq_updates_applied_total"),
              count("gtpq_connections_total"),
              count("gtpq_admission_rejected_total"),
              count("gtpq_protocol_errors_total"));
  return 0;
}

int RunServe(int argc, char** argv) {
  auto graph = ResolveGraph(argc, argv);
  if (!graph.ok()) {
    std::fprintf(stderr, "serve: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  const DataGraph& g = graph.ValueOrDie();

  net::NetServerOptions options;
  // --engine= takes a full engine spec ("naive", "gtea:sharded:interval");
  // --index= is the common shorthand for "gtea:<oracle spec>", which
  // also serves prebuilt files via --index=file:<path>. With --mmap the
  // file: loader is rewritten to mmap:, so the index body is served
  // from a read-only shared mapping instead of a heap copy.
  std::string oracle_spec;
  if (auto engine = FlagValue(argc, argv, "--engine=")) {
    options.runtime.engine_spec = *engine;
  } else {
    oracle_spec = FlagValue(argc, argv, "--index=").value_or("contour");
    if (HasFlag(argc, argv, "--mmap") &&
        !RewriteFileSpecToMmap(&oracle_spec)) {
      std::fprintf(stderr,
                   "serve: --mmap needs a file:<path> (or mmap:<path>) "
                   "index, got '%s'\n",
                   oracle_spec.c_str());
      return 1;
    }
    options.runtime.engine_spec = "gtea:" + oracle_spec;
  }
  if (!ParseServeOptions(argc, argv, "serve", &options)) return Usage();

  std::printf("graph: %zu nodes, %zu edges\n", g.NumNodes(), g.NumEdges());
  return ServeLoop(g, options, "serve");
}

int RunPartition(int argc, char** argv) {
  const auto out = FlagValue(argc, argv, "--out=");
  if (!out.has_value() || out->empty()) {
    std::fprintf(stderr, "partition: --out=<dir> is required\n");
    return Usage();
  }
  auto graph = ResolveGraph(argc, argv);
  if (!graph.ok()) {
    std::fprintf(stderr, "partition: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  const DataGraph& g = graph.ValueOrDie();

  cluster::BuildPartitionOptions options;
  unsigned long long shards = options.plan.num_shards;
  if (!ParseBoundedFlag(argc, argv, "partition", "--shards=", 1, 4096,
                        &shards)) {
    return Usage();
  }
  options.plan.num_shards = static_cast<size_t>(shards);
  options.plan.degree_aware = !HasFlag(argc, argv, "--no-degree-aware");
  options.inner_spec =
      FlagValue(argc, argv, "--inner=").value_or("interval");
  if (auto endpoints = FlagValue(argc, argv, "--endpoints=")) {
    options.endpoints = Split(*endpoints, ',');
  }

  std::printf("graph: %zu nodes, %zu edges\n", g.NumNodes(), g.NumEdges());
  Timer timer;
  auto built = cluster::BuildPartition(g, options, *out);
  if (!built.ok()) {
    std::fprintf(stderr, "partition: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const double ms = timer.ElapsedMillis();
  const cluster::PartitionMap& map = built->map;
  std::printf("%zu shard(s), %zu boundary vertex(es), %zu cross "
              "edge(s), %s cuts, in %.1f ms\n",
              map.num_shards(), map.layout.boundary.size(),
              map.layout.cross_edges.size(),
              options.plan.degree_aware ? "degree-aware" : "equal", ms);
  for (size_t s = 0; s < map.num_shards(); ++s) {
    std::printf("shard %-2zu: [%llu, %llu) -> %s + %s\n", s,
                static_cast<unsigned long long>(map.ranges[s].begin),
                static_cast<unsigned long long>(map.ranges[s].end),
                built->graph_paths[s].c_str(),
                built->index_paths[s].c_str());
  }
  std::printf("wrote %s\n", built->map_path.c_str());
  return 0;
}

int RunRoute(int argc, char** argv) {
  const auto map_path = FlagValue(argc, argv, "--map=");
  if (!map_path.has_value() || map_path->empty()) {
    std::fprintf(stderr, "route: --map=<file.gtpqmap> is required\n");
    return Usage();
  }
  auto graph = ResolveGraph(argc, argv);
  if (!graph.ok()) {
    std::fprintf(stderr, "route: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  const DataGraph& g = graph.ValueOrDie();

  // The router is just a reachability oracle, so the whole serving
  // stack (coalescing, pipelining, updates) is the regular one over
  // "gtea:cluster:<map>[@endpoints]".
  std::string spec = "cluster:" + *map_path;
  if (auto endpoints = FlagValue(argc, argv, "--endpoints=")) {
    spec += "@" + *endpoints;
  }
  net::NetServerOptions options;
  options.runtime.engine_spec = "gtea:" + spec;
  if (!ParseServeOptions(argc, argv, "route", &options)) return Usage();

  std::printf("graph: %zu nodes, %zu edges; routing via %s\n",
              g.NumNodes(), g.NumEdges(), map_path->c_str());
  return ServeLoop(g, options, "route");
}

int RunRemoteQuery(int argc, char** argv) {
  std::string text;
  if (auto inline_text = FlagValue(argc, argv, "--text=")) {
    text = *inline_text;
    // Shell-friendly inline form: semicolons separate lines.
    for (char& c : text) {
      if (c == ';') c = '\n';
    }
    text.push_back('\n');
  } else if (auto file = FlagValue(argc, argv, "--file=")) {
    std::ifstream in(*file);
    if (!in) {
      std::fprintf(stderr, "query: cannot read %s\n", file->c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  } else {
    std::fprintf(stderr,
                 "query: one of --file=<query-file> and --text=<query> "
                 "is required\n");
    return Usage();
  }

  unsigned long long limit = 0;
  if (!ParseBoundedFlag(argc, argv, "query", "--limit=", 0, ULLONG_MAX,
                        &limit)) {
    return 1;
  }
  auto client = ConnectFlag(argc, argv, "query");
  if (client == nullptr) return 1;
  // --trace stamps the request with a fresh trace id so the server-side
  // spans (dispatch, evaluate, stages, shard probes) can be picked out
  // of a later `gteactl trace` dump.
  uint64_t trace_id = 0;
  if (HasFlag(argc, argv, "--trace")) trace_id = obs::NewTraceId();
  const obs::ScopedTraceContext trace_scope({trace_id, 0});

  Timer timer;
  auto result = client->Query(text, limit);
  if (!result.ok()) {
    std::fprintf(stderr, "query: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const double ms = timer.ElapsedMillis();
  std::printf("server: %s (%llu-node graph)\n",
              client->server_info().engine.c_str(),
              static_cast<unsigned long long>(
                  client->server_info().graph_nodes));
  if (trace_id != 0) {
    std::printf("trace id: %016llx\n",
                static_cast<unsigned long long>(trace_id));
  }
  std::printf("epoch %llu, %zu tuple(s) in %.2f ms\n",
              static_cast<unsigned long long>(result->epoch),
              result->result.tuples.size(), ms);
  std::printf("%s", result->result.ToString().c_str());
  return 0;
}

int RunRemoteApply(int argc, char** argv) {
  const auto updates_path = FlagValue(argc, argv, "--updates=");
  if (!updates_path.has_value()) {
    std::fprintf(stderr, "apply: --updates=<file> is required\n");
    return Usage();
  }
  std::ifstream in(*updates_path);
  if (!in) {
    std::fprintf(stderr, "apply: cannot read %s\n", updates_path->c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  auto client = ConnectFlag(argc, argv, "apply");
  if (client == nullptr) return 1;
  auto applied = client->ApplyUpdates(buf.str());
  if (!applied.ok()) {
    std::fprintf(stderr, "apply: %s\n",
                 applied.status().ToString().c_str());
    return 1;
  }
  std::printf("applied %llu batch(es); server now at epoch %llu\n",
              static_cast<unsigned long long>(applied->batches_applied),
              static_cast<unsigned long long>(applied->epoch));
  return 0;
}

/// Shared body of the metrics/trace/slowlog subcommands: one OBSERVE
/// round trip, printed (or written to --out= for trace dumps destined
/// for chrome://tracing). The server exports data and this renders it:
/// `metrics` prints the metrics snapshot as Prometheus text, `trace`
/// the span groups as one Chrome trace. `trace --id=<hex>` narrows the
/// dump to one trace — against a router, that is the stitched
/// multi-process view of a single request.
int RunObserve(int argc, char** argv, net::ObserveKind kind) {
  const char* command = argv[1];
  uint64_t filter = 0;
  if (auto id = FlagValue(argc, argv, "--id=")) {
    // Only a whole hex id of at most 16 digits: no sign, prefix or junk.
    if (!id->empty() && id->size() <= 16 &&
        id->find_first_not_of("0123456789abcdefABCDEF") == std::string::npos) {
      filter = std::strtoull(id->c_str(), nullptr, 16);
    }
    if (filter == 0) {
      std::fprintf(stderr,
                   "%s: --id= wants the non-zero hex trace id that "
                   "`gteactl query --trace` printed, got '%s'\n",
                   command, id->c_str());
      return 1;
    }
  }
  auto client = ConnectFlag(argc, argv, command);
  if (client == nullptr) return 1;
  const auto fetch = [&]() -> Result<std::string> {
    if (kind == net::ObserveKind::kSlowlog) return client->Observe(kind);
    if (kind == net::ObserveKind::kMetricsSnapshot) {
      auto snapshot = client->Metrics();
      if (!snapshot.ok()) return snapshot.status();
      return obs::RenderPrometheusSnapshot(*snapshot);
    }
    auto groups = client->Spans(filter);
    if (!groups.ok()) return groups.status();
    size_t spans = 0;
    for (const obs::ProcessSpans& group : *groups) {
      spans += group.spans.size();
    }
    if (filter != 0 && spans == 0) {
      std::fprintf(stderr,
                   "%s: no spans matched trace %016" PRIx64
                   " — each process keeps only the most recent %zu "
                   "spans, so an older trace may have been evicted from "
                   "the ring\n",
                   command, filter, obs::TraceRecorder::kCapacity);
    }
    return obs::RenderChromeTrace(*groups);
  };
  auto body = fetch();
  if (!body.ok()) {
    std::fprintf(stderr, "%s: %s\n", command,
                 body.status().ToString().c_str());
    return 1;
  }
  if (auto out = FlagValue(argc, argv, "--out=")) {
    std::ofstream file(*out, std::ios::binary);
    file << *body;
    if (!file) {
      std::fprintf(stderr, "%s: cannot write %s\n", command, out->c_str());
      return 1;
    }
    std::printf("wrote %zu bytes to %s\n", body->size(), out->c_str());
    return 0;
  }
  std::fwrite(body->data(), 1, body->size(), stdout);
  if (!body->empty() && body->back() != '\n') std::printf("\n");
  return 0;
}

/// One dashboard row, extracted from the shard="..." series of a
/// federated snapshot.
struct TopRow {
  uint64_t queries = 0;
  uint64_t probes = 0;
  uint64_t rejected = 0;
  int64_t epoch = -1;
  int64_t healthy = -1;  // -1: no gtpq_shard_healthy gauge for this row
  bool has_latency = false;
  obs::Histogram::Snapshot latency;
};

/// The shard label value of `name` (empty labels / no shard= ->
/// nullopt). Shard labels are "0".."N" and "router", so no unescaping
/// is needed.
std::optional<std::string> ShardOf(const std::string& name,
                                   std::string* base) {
  std::string labels;
  obs::SplitSeriesName(name, base, &labels);
  size_t pos = labels.find("shard=\"");
  if (pos != std::string::npos && pos != 0 && labels[pos - 1] != ',') {
    pos = std::string::npos;
  }
  if (pos == std::string::npos) return std::nullopt;
  const size_t begin = pos + 7;
  const size_t end = labels.find('"', begin);
  if (end == std::string::npos) return std::nullopt;
  return labels.substr(begin, end - begin);
}

std::map<std::string, TopRow> ExtractTopRows(
    const obs::MetricsSnapshot& snapshot) {
  std::map<std::string, TopRow> rows;
  std::string base;
  for (const auto& [name, value] : snapshot.counters) {
    const auto shard = ShardOf(name, &base);
    if (!shard.has_value()) continue;
    if (base == "gtpq_queries_total") rows[*shard].queries = value;
    if (base == "gtpq_shard_probes_total") rows[*shard].probes = value;
    if (base == "gtpq_admission_rejected_total") {
      rows[*shard].rejected = value;
    }
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const auto shard = ShardOf(name, &base);
    if (!shard.has_value()) continue;
    if (base == "gtpq_epoch") rows[*shard].epoch = value;
    if (base == "gtpq_shard_healthy") rows[*shard].healthy = value;
  }
  for (const auto& [name, value] : snapshot.histograms) {
    const auto shard = ShardOf(name, &base);
    if (!shard.has_value()) continue;
    if (base == "gtpq_query_latency_us") {
      rows[*shard].has_latency = true;
      rows[*shard].latency = value;
    }
  }
  return rows;
}

/// `gteactl top`: terminal dashboard over successive federated
/// snapshots. Each tick scrapes the binary kMetricsSnapshot export
/// (against a router that is the whole cluster, per-shard labels
/// intact), diffs it against the previous tick, and renders per-shard
/// QPS, interval latency percentiles (exact histogram-bucket
/// subtraction, not rendered text), rejection rate, epoch, and the
/// prober's health verdict.
int RunTop(int argc, char** argv) {
  double interval_s = 2.0;
  if (auto flag = FlagValue(argc, argv, "--interval=")) {
    // ParseDouble refuses nan and inf, which would otherwise reach
    // sleep_for.
    if (!ParseDouble(*flag, &interval_s) || interval_s < 0.05 ||
        interval_s > 3600) {
      std::fprintf(stderr,
                   "top: --interval= wants seconds in [0.05, 3600], "
                   "got '%s'\n",
                   flag->c_str());
      return 1;
    }
  }
  unsigned long long count = 0;  // 0: run until interrupted
  if (!ParseBoundedFlag(argc, argv, "top", "--count=", 0, ULLONG_MAX,
                        &count)) {
    return 1;
  }
  auto client = ConnectFlag(argc, argv, "top");
  if (client == nullptr) return 1;

  std::map<std::string, TopRow> prev;
  bool have_prev = false;
  for (unsigned long long tick = 0; count == 0 || tick < count; ++tick) {
    if (have_prev) {
      std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
    }
    auto snapshot = client->Metrics();
    if (!snapshot.ok()) {
      std::fprintf(stderr, "top: %s\n",
                   snapshot.status().ToString().c_str());
      return 1;
    }
    const std::map<std::string, TopRow> rows = ExtractTopRows(*snapshot);
    if (rows.empty()) {
      std::fprintf(stderr,
                   "top: the snapshot carries no shard=\"...\" series — "
                   "point --connect= at a `gteactl route` front-end\n");
      return 1;
    }

    if (have_prev) std::printf("\x1b[2J\x1b[H");  // clear + home
    std::printf("%-8s %9s %9s %9s %9s %7s %6s %7s\n", "shard", "qps",
                "probe/s", "p50us", "p99us", "rej/s", "epoch", "health");
    for (const auto& [shard, row] : rows) {
      double qps = 0, pps = 0, rejs = 0;
      double p50 = 0, p99 = 0;
      const auto it = prev.find(shard);
      if (have_prev && it != prev.end()) {
        const TopRow& old = it->second;
        qps = static_cast<double>(row.queries - old.queries) / interval_s;
        pps = static_cast<double>(row.probes - old.probes) / interval_s;
        rejs =
            static_cast<double>(row.rejected - old.rejected) / interval_s;
        if (row.has_latency && old.has_latency &&
            row.latency.counts.size() == old.latency.counts.size()) {
          // Interval percentiles: subtract the previous tick's buckets
          // (counters are monotonic, so the delta is a valid snapshot).
          obs::Histogram::Snapshot delta = row.latency;
          for (size_t i = 0; i < delta.counts.size(); ++i) {
            delta.counts[i] -= old.latency.counts[i];
          }
          delta.sum -= old.latency.sum;
          p50 = delta.Quantile(0.5);
          p99 = delta.Quantile(0.99);
        }
      } else if (row.has_latency) {
        p50 = row.latency.Quantile(0.5);
        p99 = row.latency.Quantile(0.99);
      }
      const char* health = row.healthy < 0 ? "-"
                           : row.healthy > 0 ? "up"
                                             : "DOWN";
      char epoch[24];
      if (row.epoch < 0) {
        std::snprintf(epoch, sizeof(epoch), "-");
      } else {
        std::snprintf(epoch, sizeof(epoch), "%" PRId64, row.epoch);
      }
      std::printf("%-8s %9.1f %9.1f %9.0f %9.0f %7.1f %6s %7s\n",
                  shard.c_str(), qps, pps, p50, p99, rejs, epoch, health);
    }
    std::printf("(tick %llu, interval %.2fs; first tick shows "
                "cumulative percentiles)\n",
                tick + 1, interval_s);
    std::fflush(stdout);
    prev = rows;
    have_prev = true;
  }
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (HasFlag(argc, argv, "--quiet")) SetLogLevel(LogLevel::kError);
  static const std::map<std::string_view, Subcommand> kSubcommands = {
      {"build",
       {RunBuild, false, {"--graph=", "--gen=", "--index=", "--out="}}},
      {"inspect", {RunInspect, true, {"--mmap"}}},
      {"verify",
       {RunVerify, true, {"--graph=", "--gen=", "--probes=", "--seed="}}},
      {"apply",
       {RunApply, true,
        {"--updates=", "--graph=", "--gen=", "--out=", "--graph-out="}}},
      {"apply --connect",
       {RunRemoteApply, false, {"--connect=", "--updates="}}},
      {"serve",
       {RunServe, false,
        {"--graph=", "--gen=", "--index=", "--engine=", "--mmap", "--port=",
         "--bind=", "--threads=", "--coalesce=", "--window-us="}}},
      {"partition",
       {RunPartition, false,
        {"--graph=", "--gen=", "--out=", "--shards=", "--inner=",
         "--endpoints=", "--no-degree-aware"}}},
      {"route",
       {RunRoute, false,
        {"--map=", "--graph=", "--gen=", "--endpoints=", "--port=",
         "--bind=", "--threads=", "--coalesce=", "--window-us="}}},
      {"query",
       {RunRemoteQuery, false,
        {"--connect=", "--file=", "--text=", "--limit=", "--trace"}}},
      {"metrics",
       {[](int argc, char** argv) {
          return RunObserve(argc, argv, net::ObserveKind::kMetricsSnapshot);
        },
        false, {"--connect=", "--out="}}},
      {"trace",
       {[](int argc, char** argv) {
          return RunObserve(argc, argv, net::ObserveKind::kSpans);
        },
        false, {"--connect=", "--id=", "--out="}}},
      {"slowlog",
       {[](int argc, char** argv) {
          return RunObserve(argc, argv, net::ObserveKind::kSlowlog);
        },
        false, {"--connect=", "--out="}}},
      {"top", {RunTop, false, {"--connect=", "--interval=", "--count="}}},
  };
  // `apply` works on a local index file, or with --connect= on a server.
  const std::string_view command =
      argv[1] == std::string_view("apply") &&
              FlagValue(argc, argv, "--connect=").has_value()
          ? "apply --connect"
          : argv[1];
  const auto it = kSubcommands.find(command);
  if (it == kSubcommands.end()) {
    std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
    return Usage();
  }
  if (!OnlyAccepted(argc, argv, it->second)) return Usage();
  return it->second.run(argc, argv);
}

}  // namespace
}  // namespace gtpq

int main(int argc, char** argv) { return gtpq::Run(argc, argv); }

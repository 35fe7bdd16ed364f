// Reproduces Fig 10: the I/O-cost proxies (#input nodes accessed,
// #intermediate result size, #index elements looked up) for Q3 on the
// XMark dataset with scale factor 1.5.
//
// GTEA runs once per selected reachability spec, so the #index
// column doubles as a per-backend lookup-cost comparison:
//   --index=contour,three_hop     (default: contour, the paper's setup)
//   --index=sharded:contour       decorator specs work too
//   --index=all                   sweep every registered backend
//   --index=all-specs             sweep backends plus every decorator
//   --json=<path>                 also emit machine-readable rows (CI)
#include <cstring>
#include <string>

#include "bench/harness.h"
#include "common/string_util.h"
#include "reachability/factory.h"
#include "workload/xmark.h"

using namespace gtpq;
using namespace gtpq::bench;

namespace {

void Row(const std::string& engine, const EngineStats& s,
         JsonReport* report) {
  std::printf("%-24s %16s %16s %16s\n", engine.c_str(),
              FormatWithCommas(static_cast<long long>(s.input_nodes))
                  .c_str(),
              FormatWithCommas(
                  static_cast<long long>(s.intermediate_size))
                  .c_str(),
              FormatWithCommas(static_cast<long long>(s.index_lookups))
                  .c_str());
  report->AddRow()
      .Add("engine", engine)
      .Add("input_nodes", static_cast<uint64_t>(s.input_nodes))
      .Add("intermediate_size",
           static_cast<uint64_t>(s.intermediate_size))
      .Add("index_lookups", static_cast<uint64_t>(s.index_lookups))
      .Add("total_ms", s.total_ms);
}

std::vector<std::string> ParseIndexFlag(int argc, char** argv) {
  std::string spec = "contour";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--index=", 8) == 0) spec = argv[i] + 8;
  }
  if (spec == "all") {
    std::vector<std::string> out;
    for (auto k : AllReachabilityBackends()) {
      out.emplace_back(ReachabilityBackendName(k));
    }
    return out;
  }
  if (spec == "all-specs") return AllReachabilitySpecs();
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string name = spec.substr(pos, comma - pos);
    if (!name.empty()) {
      if (IsValidReachabilitySpec(name)) {
        out.push_back(name);
      } else {
        std::fprintf(stderr,
                     "unknown reachability spec '%s' (known base backends:",
                     name.c_str());
        for (auto k : AllReachabilityBackends()) {
          std::fprintf(stderr, " %s",
                       std::string(ReachabilityBackendName(k)).c_str());
        }
        std::fprintf(stderr,
                     "; prefixes: sharded: delta: file: mmap: cluster:)\n");
        std::exit(2);
      }
    }
    pos = comma + 1;
  }
  if (out.empty()) {
    std::fprintf(stderr,
                 "--index= selected no backends; pass a comma-separated "
                 "list, 'all', or 'all-specs'\n");
    std::exit(2);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  RejectUnknownFlags(argc, argv, {"--index=", "--json="});
  const auto backends = ParseIndexFlag(argc, argv);
  const auto json_path = JsonFlag(argc, argv);
  const double s = BenchScale();
  workload::XmarkOptions o;
  o.scale = 1.5 * s;
  DataGraph g = workload::GenerateXmark(o);
  EngineBench engines(g);
  auto wq = workload::BuildXmarkQ3(g, 3, 4, 5);
  auto cross = EngineBench::CrossIds(wq.query, wq.cross_node_names);

  std::printf("Fig 10: I/O cost for Q3 on XMark scale 1.5 "
              "(GTPQ_BENCH_SCALE=%g)\n", s);
  std::printf("%-24s %16s %16s %16s\n", "Engine", "#input",
              "#intermediate", "#index");

  JsonReport report("fig10_io_cost");
  report.AddMeta("scale", s);
  report.AddMeta("nodes", static_cast<uint64_t>(g.NumNodes()));
  report.AddMeta("edges", static_cast<uint64_t>(g.NumEdges()));
  for (const std::string& backend : backends) {
    auto idx = MakeReachabilityIndex(std::string_view(backend), g.graph());
    if (idx == nullptr) {
      std::fprintf(stderr, "cannot build reachability spec '%s'\n",
                   backend.c_str());
      return 1;
    }
    GteaEngine gtea(
        g, std::shared_ptr<const ReachabilityOracle>(std::move(idx)));
    gtea.Evaluate(wq.query);
    Row(std::string(gtea.name()), gtea.stats(), &report);
  }
  engines.RunHgJoinPlus(wq.query);
  Row("HGJoin+", engines.stats(), &report);
  engines.RunTwigStackD(wq.query);
  Row("TwigStackD", engines.stats(), &report);
  engines.RunTwigStack(wq.query, cross);
  Row("TwigStack", engines.stats(), &report);
  engines.RunTwig2Stack(wq.query, cross);
  Row("Twig2Stack", engines.stats(), &report);

  std::printf("\nPaper shape: GTEA has by far the smallest intermediate "
              "results; TwigStackD reads the most input (two graph "
              "traversals); TwigStack/Twig2Stack materialize large path "
              "solutions. Across GTEA backends, #index isolates each "
              "oracle's per-probe cost.\n");
  if (json_path.has_value() && !report.WriteTo(*json_path)) return 1;
  return 0;
}

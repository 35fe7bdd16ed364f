// Cold-restart serving latency: how long after exec can a server
// answer its first probe? For each index spec the bench builds an
// oracle over an XMark graph, persists it, then times the two restart
// paths side by side:
//
//   mmap=0  LoadReachabilityIndex      parse + copy onto the heap
//   mmap=1  LoadReachabilityIndexView  map read-only, borrow in place
//
// load_ms is the min over reps of open-to-ready; probe_ms is a fixed
// random Reaches() sweep issued immediately after load, so the mmap
// rows pay their page faults inside the measurement instead of hiding
// them. index_mb sizes the artifact the restart has to swallow.
//
//   --spec=three_hop,sharded:interval  index specs to sweep
//   --probes=20000                     post-load probe sweep size
//   --json=<path>                      machine-readable rows (CI)
//   GTPQ_BENCH_SCALE                   graph scale (default 0.02)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/rng.h"
#include "common/timer.h"
#include "reachability/factory.h"
#include "storage/index_io.h"
#include "workload/xmark.h"

using namespace gtpq;
using namespace gtpq::bench;

namespace {

std::string TempIndexPath(size_t ordinal) {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || dir[0] == '\0') dir = "/tmp";
  return std::string(dir) + "/gtpq_bench_restart_" +
         std::to_string(ordinal) +
         std::string(storage::kIndexFileExtension);
}

double ProbeSweepMs(const ReachabilityOracle& oracle, size_t num_nodes,
                    size_t probes) {
  Rng rng(97);
  size_t hits = 0;
  Timer timer;
  for (size_t i = 0; i < probes; ++i) {
    const NodeId a = static_cast<NodeId>(rng.NextBounded(num_nodes));
    const NodeId b = static_cast<NodeId>(rng.NextBounded(num_nodes));
    hits += oracle.Reaches(a, b) ? 1 : 0;
  }
  const double ms = timer.ElapsedMillis();
  // Keep the sweep observable so the probe loop cannot be elided.
  if (hits > probes) std::fprintf(stderr, "impossible hit count\n");
  return ms;
}

}  // namespace

int main(int argc, char** argv) {
  RejectUnknownFlags(argc, argv, {"--json=", "--spec=", "--probes="});
  const double scale = BenchScale();
  const int reps = BenchReps();
  const auto json_path = JsonFlag(argc, argv);
  const auto specs =
      SplitFlag(argc, argv, "--spec=", "three_hop,sharded:interval");
  const size_t probes = SizeFlag(argc, argv, "--probes=", 20000);
  if (specs.empty() || probes == 0) {
    std::fprintf(stderr, "--spec= needs values; --probes= must be "
                         "positive\n");
    return 2;
  }

  workload::XmarkOptions go;
  go.scale = scale;
  const DataGraph g = workload::GenerateXmark(go);
  std::printf("Cold restart: index load + first %zu probes "
              "(GTPQ_BENCH_SCALE=%g, %zu nodes)\n",
              probes, scale, g.NumNodes());
  std::printf("%-24s %6s %10s %10s %10s\n", "Spec", "mmap", "index_mb",
              "load_ms", "probe_ms");

  JsonReport report("restart");
  report.AddMeta("scale", scale);
  report.AddMeta("probes", static_cast<uint64_t>(probes));

  for (size_t si = 0; si < specs.size(); ++si) {
    const std::string& spec = specs[si];
    auto built = MakeReachabilityIndex(std::string_view(spec), g.graph());
    if (built == nullptr) {
      std::fprintf(stderr, "cannot build index spec '%s'\n", spec.c_str());
      return 2;
    }
    const std::string path = TempIndexPath(si);
    const Status saved =
        storage::SaveReachabilityIndex(*built, g.graph(), path);
    if (!saved.ok()) {
      std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
      return 2;
    }
    auto info = storage::InspectReachabilityIndex(path);
    const double index_mb =
        info.ok() ? static_cast<double>(info->file_bytes) / (1 << 20) : 0;
    built.reset();

    for (const bool use_mmap : {false, true}) {
      double load_ms = 0, probe_ms = 0;
      for (int rep = 0; rep < reps; ++rep) {
        Timer timer;
        auto loaded =
            use_mmap ? storage::LoadReachabilityIndexView(path, g.graph())
                     : storage::LoadReachabilityIndex(path, g.graph());
        const double this_load = timer.ElapsedMillis();
        if (!loaded.ok()) {
          std::fprintf(stderr, "load failed: %s\n",
                       loaded.status().ToString().c_str());
          return 2;
        }
        const double this_probe =
            ProbeSweepMs(**loaded, g.NumNodes(), probes);
        if (rep == 0 || this_load < load_ms) load_ms = this_load;
        if (rep == 0 || this_probe < probe_ms) probe_ms = this_probe;
      }
      std::printf("%-24s %6d %10.2f %10.2f %10.2f\n", spec.c_str(),
                  use_mmap ? 1 : 0, index_mb, load_ms, probe_ms);
      report.AddRow()
          .Add("spec", spec)
          .Add("mmap", static_cast<uint64_t>(use_mmap ? 1 : 0))
          .Add("index_mb", index_mb)
          .Add("load_ms", load_ms)
          .Add("probe_ms", probe_ms);
    }
    std::remove(path.c_str());
  }

  if (json_path.has_value() && !report.WriteTo(*json_path)) return 1;
  return 0;
}

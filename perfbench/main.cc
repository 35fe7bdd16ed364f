// gtpq_perfbench — fixed-work serving benchmark over the GTPQ stacks.
//
//   gtpq_perfbench --workload <name> --seed <n> --seconds <s>
//                  --trace <0|1> --work-dir <dir> [--source-rev <rev>]
//
// Prints a run stamp and workload notes, then as its last stdout line
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer breakdown. Exits 1 on any failed or mismatching operation,
// 2 on bad arguments.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "common/logging.h"

namespace {

void PrintJson(const perfbench::Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: gtpq_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> "
               "[--source-rev <rev>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string source_rev = "unknown";
  if (argc % 2 != 1) return Usage("flags take one value each");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--source-rev") {
      source_rev = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  auto workload = perfbench::MakeWorkload(config.workload);
  if (workload == nullptr) {
    std::string known;
    for (const std::string& name : perfbench::WorkloadNames()) {
      known += " " + name;
    }
    return Usage(("unknown workload '" + config.workload +
                  "'; known:" + known)
                     .c_str());
  }
  if (!(config.seconds > 0) || config.work_dir.empty()) {
    return Usage("--seconds must be > 0 and --work-dir set");
  }
  // Router warnings on teardown would interleave with the report.
  gtpq::SetLogLevel(gtpq::LogLevel::kError);
  config.span_path = config.work_dir + "/spans-" + config.workload + "-" +
                     std::to_string(config.seed) + ".json";
  config.work_dir += "/" + config.workload + "-" +
                     std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) return Usage(("cannot create " + config.work_dir).c_str());

  perfbench::Outcome out;
  const int cpu = perfbench::PinToQuietCpu();
  out.Check(cpu >= 0);
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
              "cpu=%d build=%s compiler=\"%s\" source=%s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, std::thread::hardware_concurrency(), cpu,
              GTPQ_PERFBENCH_BUILD_TYPE, GTPQ_PERFBENCH_COMPILER,
              source_rev.c_str());

  workload->Run(config, &out);
  workload.reset();  // stops every server before the report
  std::filesystem::remove_all(config.work_dir, ec);

  for (const std::string& line : out.info) std::printf("%s\n", line.c_str());
  std::printf("ops: ops_failed=%llu ops_total=%llu\n",
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  PrintJson(out);
  std::fflush(stdout);
  return out.failed == 0 && out.attempted > 0 ? 0 : 1;
}

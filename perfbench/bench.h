// Shared types of the fixed-work serving benchmark (see METRICS.md).
#ifndef GTPQ_PERFBENCH_BENCH_H_
#define GTPQ_PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/eval_types.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for index files and partition artifacts,
  /// removed when the run ends.
  std::string work_dir;
  /// Where a traced run writes its spans (Chrome trace JSON).
  std::string span_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports. `attempted`/`failed` count every verified
/// operation (queries and updates, warm-up included); `info` lines are
/// printed before the final JSON line.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> info;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// One serving stack driven with a fixed, seed-derived operation list.
/// Run() owns the whole measurement: input generation and reference
/// answers (untimed), repeated set-up, an untimed warm-up pass, then
/// complete passes until the time budget is spent.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Run(const RunConfig& config, Outcome* out) = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// --- measurement helpers ---------------------------------------------

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double Percentile(std::vector<double>* values, double p);
double Median(std::vector<double> values);
/// User+system CPU time of the whole process, in ms.
double ProcessCpuMs();
/// Peak resident set size of the process since the last ResetPeakRss,
/// in MiB.
double PeakRssMb();
/// Restarts the peak, so memory spent on reference answers before
/// set-up does not hide the serving stack's own peak.
void ResetPeakRss();
/// Seconds on a monotonic clock.
double NowSeconds();
/// Pins the calling thread, and every thread it starts from then on, to
/// the allowed CPU that has served the fewest device interrupts (ties go
/// to the higher number); returns that CPU, or -1 if pinning failed.
/// main() calls it first, so every workload runs on one CPU: the stacks
/// hand each request across threads, and on a shared VM a wake-up on an
/// idle core can take a whole hypervisor time slice. Avoiding the CPU
/// that takes the disk and network interrupts keeps other processes' I/O
/// off the stack's path (see METRICS.md).
int PinToQuietCpu();

}  // namespace perfbench

#endif  // GTPQ_PERFBENCH_BENCH_H_

#ifndef GTPQ_OBS_METRICS_H_
#define GTPQ_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gtpq {
namespace obs {

/// Process-wide metrics primitives for the serving stack. Writers are
/// hot paths (per query, per probe, per frame), so every Record/Add is
/// a handful of relaxed atomic ops with no locks; readers (the OBSERVE
/// wire frame, tests) aggregate a consistent-enough snapshot without
/// ever stopping writers. All three primitives are registered by
/// static series name in the Registry and rendered together as
/// Prometheus text exposition.

/// Monotonic counter, striped across cache lines so concurrent writers
/// from different threads do not bounce one hot line. Value() sums the
/// stripes (relaxed; the total is exact once writers quiesce, and
/// monotonically fresh while they run).
class Counter {
 public:
  void Add(uint64_t n = 1) {
    stripes_[StripeIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr size_t kStripes = 8;
  static size_t StripeIndex();
  struct alignas(64) Stripe {
    std::atomic<uint64_t> v{0};
  };
  std::array<Stripe, kStripes> stripes_;
};

/// Last-writer-wins instantaneous value (epoch, queue depth).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Log-linear latency histogram over non-negative integer samples
/// (microseconds by convention). Buckets: values below 16 map to one
/// bucket each; above that, every power-of-two range splits into 16
/// linear sub-buckets, so any quantile read off a bucket edge is within
/// a 1/16 relative error of the true sample — mergeable across threads
/// and processes by plain bucket-count addition, which is what makes
/// per-thread recording + scrape-time aggregation exact.
class Histogram {
 public:
  static constexpr size_t kSubBuckets = 16;
  /// 16 unit buckets + 16 sub-buckets per major power of two (2^4..2^63).
  static constexpr size_t kNumBuckets = 16 + 60 * kSubBuckets;

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  /// A point-in-time copy, mergeable and queryable without touching the
  /// live histogram again.
  struct Snapshot {
    std::vector<uint64_t> counts;  // kNumBuckets entries
    uint64_t sum = 0;

    uint64_t TotalCount() const;
    /// Adds `other`'s buckets into this snapshot.
    void Merge(const Snapshot& other);
    /// Upper edge of the bucket holding the q-quantile sample
    /// (q in [0, 1]); 0 when empty. Relative error <= 1/16 by the
    /// bucket-width bound above.
    double Quantile(double q) const;
  };
  Snapshot Snap() const;

  /// Bucket mapping, exposed for the exposition renderer and the merge
  /// property test.
  static size_t BucketIndex(uint64_t value);
  /// Largest value that lands in bucket `index` (the Prometheus `le`
  /// edge).
  static uint64_t BucketUpperBound(size_t index);

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
};

/// A point-in-time copy of an entire registry: every series by name,
/// with full histogram buckets rather than rendered text. This is the
/// unit of cross-process federation — a shard exports its snapshot over
/// the wire, the router merges counters by addition and histograms via
/// Histogram::Snapshot::Merge, and the merged result renders exactly as
/// if one process had recorded every sample.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
};

/// Escapes a label VALUE per the Prometheus text format: backslash,
/// double quote, and newline become \\, \", and \n.
std::string EscapeLabelValue(std::string_view value);

/// Builds a series name `base{k1="v1",k2="v2"}` with every value
/// escaped. The canonical way to register a labeled series.
std::string LabeledName(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels);

/// Splits "base{inner}" into base and the inner label text (empty when
/// the series carries no label block).
void SplitSeriesName(const std::string& name, std::string* base,
                     std::string* labels);

/// True when `name` is a well-formed series name: a Prometheus metric
/// identifier, optionally followed by one brace-balanced label block of
/// parseable k="v" pairs. Registration DCHECKs this.
bool IsValidSeriesName(const std::string& name);

/// Renders a snapshot as Prometheus text exposition (version 0.0.4):
/// one TYPE line per family, counters/gauges as single samples,
/// histograms as cumulative _bucket{le=}/_sum/_count series (empty
/// buckets elided) plus _p50/_p90/_p99 gauge families computed from the
/// same snapshot. Label values are escaped on the way out, so a raw
/// quote or newline in a registered name cannot corrupt the exposition.
std::string RenderPrometheusSnapshot(const MetricsSnapshot& snapshot);

/// Name-keyed registry of every metric in the process. Series names
/// follow Prometheus conventions and may embed a label block:
/// "gtpq_queries_total", "gtpq_shard_probe_latency_us{shard=\"2\"}".
/// Get* registers on first use and returns a stable pointer (metrics
/// are never unregistered), so hot paths cache the pointer in a
/// function-local static and pay the map lookup once.
class Registry {
 public:
  static Registry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Every registered series, copied under the registry lock.
  MetricsSnapshot Snap() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace gtpq

#endif  // GTPQ_OBS_METRICS_H_

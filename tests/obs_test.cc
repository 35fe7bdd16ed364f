// Observability layer tests: the histogram merge property (K
// per-thread histograms merged bucket-for-bucket equal one histogram
// that saw every sample, with the quantile error bound asserted),
// striped-counter exactness under concurrent writers, Prometheus text
// exposition shape, the trace recorder ring, and slow-query-log
// worst-N eviction. The concurrency cases run in the TSan CI job.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/federation.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "obs/trace.h"

namespace gtpq {
namespace obs {
namespace {

// ------------------------------------------------------------ Counter

TEST(CounterTest, ExactUnderConcurrentWriters) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------- Histogram

TEST(HistogramTest, BucketMappingIsMonotonicAndConsistent) {
  // Every sample must land in a bucket whose upper bound is >= the
  // sample and whose predecessor's upper bound is < the sample.
  size_t prev_index = 0;
  for (uint64_t v :
       {uint64_t{0}, uint64_t{1}, uint64_t{15}, uint64_t{16}, uint64_t{17},
        uint64_t{31}, uint64_t{32}, uint64_t{100}, uint64_t{1000},
        uint64_t{123456}, uint64_t{1} << 40, uint64_t{1} << 62}) {
    const size_t index = Histogram::BucketIndex(v);
    ASSERT_LT(index, Histogram::kNumBuckets) << "value " << v;
    EXPECT_GE(Histogram::BucketUpperBound(index), v) << "value " << v;
    if (index > 0) {
      EXPECT_LT(Histogram::BucketUpperBound(index - 1), v)
          << "value " << v;
    }
    EXPECT_GE(index, prev_index) << "value " << v;
    prev_index = index;
  }
  // Exhaustive over a dense small range where off-by-ones would hide.
  for (uint64_t v = 0; v < 4096; ++v) {
    const size_t index = Histogram::BucketIndex(v);
    ASSERT_GE(Histogram::BucketUpperBound(index), v) << "value " << v;
    if (index > 0) {
      ASSERT_LT(Histogram::BucketUpperBound(index - 1), v)
          << "value " << v;
    }
  }
}

TEST(HistogramTest, MergeOfPerThreadHistogramsEqualsOneHistogram) {
  // The property the scrape path relies on: K per-thread histograms,
  // merged by plain bucket addition, are indistinguishable from one
  // histogram that recorded every sample.
  constexpr int kThreads = 7;
  constexpr int kPerThread = 5000;
  std::vector<Histogram> per_thread(kThreads);
  Histogram combined;

  // Deterministic log-uniform-ish samples spanning many majors.
  std::vector<std::vector<uint64_t>> samples(kThreads);
  std::mt19937_64 rng(42);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const int shift = static_cast<int>(rng() % 40);
      samples[t].push_back(rng() % (uint64_t{2} << shift));
    }
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t v : samples[t]) per_thread[t].Record(v);
    });
  }
  for (auto& th : threads) th.join();
  std::vector<uint64_t> all;
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t v : samples[t]) {
      combined.Record(v);
      all.push_back(v);
    }
  }

  Histogram::Snapshot merged = per_thread[0].Snap();
  for (int t = 1; t < kThreads; ++t) {
    merged.Merge(per_thread[t].Snap());
  }
  const Histogram::Snapshot expected = combined.Snap();
  EXPECT_EQ(merged.counts, expected.counts);  // exact, bucket for bucket
  EXPECT_EQ(merged.sum, expected.sum);
  EXPECT_EQ(merged.TotalCount(),
            static_cast<uint64_t>(kThreads) * kPerThread);

  // Quantile error bound: the bucket edge returned for q must be within
  // 1/16 relative error of the true nearest-rank sample.
  std::sort(all.begin(), all.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const double estimate = merged.Quantile(q);
    size_t rank = static_cast<size_t>(q * static_cast<double>(all.size()));
    if (rank >= all.size()) rank = all.size() - 1;
    const double truth = static_cast<double>(all[rank]);
    EXPECT_GE(estimate, truth) << "q=" << q;  // upper edge bounds above
    EXPECT_LE(estimate, truth + truth / 16.0 + 1.0) << "q=" << q;
  }
}

TEST(HistogramTest, QuantileEdgeCases) {
  Histogram h;
  EXPECT_EQ(h.Snap().Quantile(0.5), 0.0);  // empty
  h.Record(7);
  const Histogram::Snapshot one = h.Snap();
  EXPECT_EQ(one.Quantile(0.0), 7.0);
  EXPECT_EQ(one.Quantile(1.0), 7.0);
}

// ----------------------------------------------------------- Registry

TEST(RegistryTest, GetReturnsStablePointers) {
  Registry& registry = Registry::Global();
  Counter* a = registry.GetCounter("gtpq_test_stable_total");
  Counter* b = registry.GetCounter("gtpq_test_stable_total");
  EXPECT_EQ(a, b);
  EXPECT_NE(static_cast<void*>(registry.GetGauge("gtpq_test_stable_total")),
            static_cast<void*>(a));  // separate namespaces per kind
}

TEST(RegistryTest, PrometheusRenderIsWellFormed) {
  Registry& registry = Registry::Global();
  registry.GetCounter("gtpq_test_render_total")->Add(3);
  registry.GetGauge("gtpq_test_render_depth")->Set(-2);
  Histogram* h = registry.GetHistogram("gtpq_test_render_us");
  h->Record(5);
  h->Record(500);
  registry.GetCounter("gtpq_test_render_labeled_total{shard=\"1\"}")
      ->Add(7);

  const std::string text = RenderPrometheusSnapshot(registry.Snap());

  // Every non-comment line is `name[{labels}] value`; every series is
  // preceded by exactly one TYPE line for its family.
  std::istringstream lines(text);
  std::string line;
  size_t samples = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line);
      std::string hash, type, family, kind;
      fields >> hash >> type >> family >> kind;
      EXPECT_TRUE(kind == "counter" || kind == "gauge" ||
                  kind == "histogram")
          << line;
      continue;
    }
    ASSERT_NE(line[0], '#') << line;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    EXPECT_FALSE(value.empty()) << line;
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(end, value.c_str() + value.size()) << line;
    ++samples;
  }
  EXPECT_GT(samples, 0u);

  EXPECT_NE(text.find("# TYPE gtpq_test_render_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("gtpq_test_render_total 3"), std::string::npos);
  EXPECT_NE(text.find("gtpq_test_render_depth -2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gtpq_test_render_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("gtpq_test_render_us_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("gtpq_test_render_us_sum 505"), std::string::npos);
  EXPECT_NE(text.find("gtpq_test_render_us_count 2"), std::string::npos);
  EXPECT_NE(text.find("gtpq_test_render_us_p50"), std::string::npos);
  EXPECT_NE(text.find("gtpq_test_render_labeled_total{shard=\"1\"} 7"),
            std::string::npos);
  // The labeled series' TYPE line names the bare family, not the
  // label block.
  EXPECT_NE(
      text.find("# TYPE gtpq_test_render_labeled_total counter"),
      std::string::npos);
  EXPECT_EQ(text.find("# TYPE gtpq_test_render_labeled_total{"),
            std::string::npos);
}

TEST(RegistryTest, LabelValuesEscapeOnRender) {
  // A label value with every character the text format escapes:
  // backslash, double quote, newline.
  const std::string name = LabeledName(
      "gtpq_test_escape_total", {{"path", "a\\b\"c\nd"}});
  EXPECT_EQ(name,
            "gtpq_test_escape_total{path=\"a\\\\b\\\"c\\nd\"}");
  EXPECT_TRUE(IsValidSeriesName(name));
  Registry& registry = Registry::Global();
  registry.GetCounter(name)->Add(2);
  const std::string text = RenderPrometheusSnapshot(registry.Snap());
  // Rendered escaped — one line, no raw newline or bare quote breaks
  // the exposition grammar.
  EXPECT_NE(
      text.find(
          "gtpq_test_escape_total{path=\"a\\\\b\\\"c\\nd\"} 2"),
      std::string::npos);
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("gtpq_test_escape_total", 0) == 0) {
      EXPECT_NE(line.find("\\n"), std::string::npos) << line;
    }
  }
}

TEST(RegistryTest, SeriesNameValidation) {
  EXPECT_TRUE(IsValidSeriesName("gtpq_queries_total"));
  EXPECT_TRUE(IsValidSeriesName("gtpq:aggregated_total"));
  EXPECT_TRUE(IsValidSeriesName("gtpq_x_total{shard=\"1\"}"));
  EXPECT_TRUE(
      IsValidSeriesName("gtpq_x_total{a=\"1\",b=\"two words\"}"));
  EXPECT_TRUE(IsValidSeriesName(
      LabeledName("gtpq_x_total", {{"v", "quote\"and\\slash"}})));

  EXPECT_FALSE(IsValidSeriesName(""));
  EXPECT_FALSE(IsValidSeriesName("1starts_with_digit"));
  EXPECT_FALSE(IsValidSeriesName("has space"));
  EXPECT_FALSE(IsValidSeriesName("gtpq_x_total{"));            // unclosed
  EXPECT_FALSE(IsValidSeriesName("gtpq_x_total{shard=1}"));    // unquoted
  EXPECT_FALSE(IsValidSeriesName("gtpq_x_total{shard=\"1\""));  // no brace
  EXPECT_FALSE(IsValidSeriesName("gtpq_x_total{shard=\"1}"));  // unclosed "
  EXPECT_FALSE(
      IsValidSeriesName("gtpq_x_total{a=\"1\"b=\"2\"}"));  // no comma
  EXPECT_FALSE(IsValidSeriesName("gtpq_x_total{a=\"1\",}"));  // trailing ,
  EXPECT_FALSE(IsValidSeriesName("gtpq_x_total{=\"1\"}"));    // empty key
}

// --------------------------------------------------------- Federation

TEST(FederationTest, SnapshotCodecRoundTripsEverySeriesType) {
  MetricsSnapshot snapshot;
  snapshot.counters.emplace_back("gtpq_a_total", 7);
  snapshot.counters.emplace_back("gtpq_b_total{shard=\"2\"}", 0);
  snapshot.gauges.emplace_back("gtpq_depth", int64_t{-3});
  snapshot.gauges.emplace_back("gtpq_epoch", int64_t{12});
  Histogram h;
  h.Record(0);
  h.Record(5);
  h.Record(1000);
  h.Record(1ull << 40);
  snapshot.histograms.emplace_back("gtpq_lat_us", h.Snap());
  snapshot.histograms.emplace_back("gtpq_empty_us",
                                   Histogram().Snap());

  const std::string bytes = EncodeMetricsSnapshot(snapshot);
  MetricsSnapshot out;
  ASSERT_TRUE(DecodeMetricsSnapshot(bytes, &out).ok());
  ASSERT_EQ(out.counters.size(), 2u);
  EXPECT_EQ(out.counters[0].first, "gtpq_a_total");
  EXPECT_EQ(out.counters[0].second, 7u);
  EXPECT_EQ(out.counters[1].first, "gtpq_b_total{shard=\"2\"}");
  ASSERT_EQ(out.gauges.size(), 2u);
  EXPECT_EQ(out.gauges[0].second, -3);  // negative survives the u64 trip
  ASSERT_EQ(out.histograms.size(), 2u);
  EXPECT_EQ(out.histograms[0].second.counts,
            snapshot.histograms[0].second.counts);
  EXPECT_EQ(out.histograms[0].second.sum,
            snapshot.histograms[0].second.sum);
  EXPECT_EQ(out.histograms[1].second.TotalCount(), 0u);
}

// Both federation codecs end in a CRC-32 over everything before it, so
// no prefix of a valid encoding and no single bit flip decodes.
template <typename T>
void ExpectDamageRejected(const std::string& bytes,
                          Status (*decode)(std::string_view, T*)) {
  T out;
  ASSERT_TRUE(decode(bytes, &out).ok());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(decode(bytes.substr(0, cut), &out).ok())
        << "prefix of " << cut << " bytes decoded";
  }
  for (size_t i = 0; i < bytes.size(); i += 7) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x20);
    EXPECT_FALSE(decode(corrupt, &out).ok())
        << "bit flip at byte " << i << " decoded";
  }
}

TEST(FederationTest, CodecsRejectTruncationAndCorruption) {
  MetricsSnapshot snapshot;
  snapshot.counters.emplace_back("gtpq_a_total", 1);
  Histogram h;
  h.Record(42);
  snapshot.histograms.emplace_back("gtpq_lat_us", h.Snap());
  ExpectDamageRejected(EncodeMetricsSnapshot(snapshot),
                       DecodeMetricsSnapshot);
  Span span;
  span.trace_id = 0xabc;
  span.name = "dispatch";
  ExpectDamageRejected(
      EncodeSpans({{"router", 1, {span}}, {"shard 0", 2, {span, span}}}),
      DecodeSpans);
}

TEST(FederationTest, ShardLabelInjection) {
  EXPECT_EQ(WithShardLabel("gtpq_queries_total", "2"),
            "gtpq_queries_total{shard=\"2\"}");
  // Injected FIRST into an existing label block.
  EXPECT_EQ(WithShardLabel("gtpq_x_total{a=\"1\"}", "0"),
            "gtpq_x_total{shard=\"0\",a=\"1\"}");
  // Already shard-labeled: pass through unchanged (no duplicate key).
  EXPECT_EQ(WithShardLabel("gtpq_probes_total{shard=\"1\"}", "9"),
            "gtpq_probes_total{shard=\"1\"}");
  EXPECT_EQ(WithShardLabel("gtpq_x_total{a=\"1\",shard=\"3\"}", "9"),
            "gtpq_x_total{a=\"1\",shard=\"3\"}");
  // The label value is escaped on the way in.
  EXPECT_EQ(WithShardLabel("gtpq_x_total", "a\"b"),
            "gtpq_x_total{shard=\"a\\\"b\"}");
}

TEST(FederationTest, MergedShardSnapshotsEqualOneProcess) {
  // The tentpole property: K member snapshots merged through
  // BuildFederatedSnapshot produce unlabeled aggregates identical to
  // one process that recorded every sample.
  std::mt19937_64 rng(77);
  Histogram all;  // the would-be single process
  uint64_t all_queries = 0;
  std::vector<MemberSnapshot> members;
  for (size_t shard = 0; shard < 3; ++shard) {
    Histogram local;
    uint64_t queries = 0;
    const size_t n = 200 + 100 * shard;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t sample = rng() % (1ull << (8 + 8 * shard));
      local.Record(sample);
      all.Record(sample);
      ++queries;
    }
    all_queries += queries;
    MetricsSnapshot member;
    member.counters.emplace_back("gtpq_queries_total", queries);
    member.counters.emplace_back(
        "gtpq_already_labeled_total{shard=\"x\"}", 5);
    member.gauges.emplace_back("gtpq_epoch", int64_t(shard));
    member.histograms.emplace_back("gtpq_query_latency_us",
                                   local.Snap());
    members.push_back({std::to_string(shard), std::move(member)});
  }

  MetricsSnapshot self;
  self.counters.emplace_back("gtpq_connections_total", 9);
  const MetricsSnapshot merged = BuildFederatedSnapshot(self, members);

  uint64_t agg_queries = 0, labeled_sum = 0;
  bool saw_self = false, saw_double_label = false;
  for (const auto& [name, value] : merged.counters) {
    if (name == "gtpq_queries_total") agg_queries = value;
    if (name == "gtpq_connections_total{shard=\"router\"}") {
      saw_self = true;
      EXPECT_EQ(value, 9u);
    }
    for (size_t shard = 0; shard < 3; ++shard) {
      if (name == "gtpq_queries_total{shard=\"" +
                      std::to_string(shard) + "\"}") {
        labeled_sum += value;
      }
    }
    if (name.find("shard=\"x\"") != std::string::npos) {
      // Member series that already carried shard= must NOT get a second
      // shard label or an unlabeled aggregate.
      EXPECT_EQ(name, "gtpq_already_labeled_total{shard=\"x\"}");
      saw_double_label |=
          name.find("shard=\"") != name.rfind("shard=\"");
    }
  }
  EXPECT_TRUE(saw_self);
  EXPECT_FALSE(saw_double_label);
  EXPECT_EQ(agg_queries, all_queries);
  EXPECT_EQ(labeled_sum, all_queries);
  for (const auto& [name, value] : merged.counters) {
    // No unlabeled aggregate for the pre-labeled member series — that
    // would double count it once per shard.
    EXPECT_NE(name, "gtpq_already_labeled_total");
  }

  // Histogram aggregate: bucket-for-bucket equal to the single-process
  // histogram, so quantiles and _count agree exactly.
  const Histogram::Snapshot want = all.Snap();
  bool found = false;
  for (const auto& [name, snap] : merged.histograms) {
    if (name != "gtpq_query_latency_us") continue;
    found = true;
    EXPECT_EQ(snap.counts, want.counts);
    EXPECT_EQ(snap.sum, want.sum);
    EXPECT_EQ(snap.TotalCount(), all_queries);
    EXPECT_EQ(snap.Quantile(0.5), want.Quantile(0.5));
  }
  EXPECT_TRUE(found);
  // Gauges never aggregate: no unlabeled gtpq_epoch; per-shard copies
  // keep their instantaneous values.
  int epoch_gauges = 0;
  for (const auto& [name, value] : merged.gauges) {
    EXPECT_NE(name, "gtpq_epoch");
    if (name.rfind("gtpq_epoch{", 0) == 0) ++epoch_gauges;
  }
  EXPECT_EQ(epoch_gauges, 3);

  // The federated snapshot also renders as valid exposition and
  // round-trips the wire codec (the router re-exports what it merged).
  MetricsSnapshot decoded;
  ASSERT_TRUE(
      DecodeMetricsSnapshot(EncodeMetricsSnapshot(merged), &decoded)
          .ok());
  const std::string text = RenderPrometheusSnapshot(decoded);
  EXPECT_NE(text.find("gtpq_queries_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("gtpq_query_latency_us_count " +
                      std::to_string(all_queries)),
            std::string::npos);
}

TEST(FederationTest, SpanCodecRoundTripsProcessGroups) {
  Span a;
  a.trace_id = 0xdeadbeefcafe1234ull;
  a.span_id = 0x1111;
  a.parent_span = 0;
  a.name = "route query";
  a.start_us = 10.5;
  a.dur_us = 250.25;
  a.tid = 3;
  Span b;
  b.trace_id = a.trace_id;
  b.span_id = 0x2222;
  b.parent_span = 0x1111;
  b.name = "probe shard=1";
  b.start_us = 12;
  b.dur_us = 80;
  // A shard with no matching spans still exports its (empty) group.
  const std::vector<ProcessSpans> groups = {
      {"router", 1, {a, b}}, {"shard 0 (127.0.0.1:7501)", 2, {}}};

  std::vector<ProcessSpans> out;
  ASSERT_TRUE(DecodeSpans(EncodeSpans(groups), &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].process_name, "router");
  EXPECT_EQ(out[0].pid, 1u);
  ASSERT_EQ(out[0].spans.size(), 2u);
  EXPECT_EQ(out[0].spans[0].trace_id, a.trace_id);
  EXPECT_EQ(out[0].spans[0].span_id, a.span_id);
  EXPECT_EQ(out[0].spans[0].name, "route query");
  EXPECT_EQ(out[0].spans[0].start_us, 10.5);  // bit-exact via bit_cast
  EXPECT_EQ(out[0].spans[0].dur_us, 250.25);
  EXPECT_EQ(out[0].spans[0].tid, 3u);
  EXPECT_EQ(out[0].spans[1].parent_span, 0x1111u);
  EXPECT_EQ(out[1].process_name, "shard 0 (127.0.0.1:7501)");
  EXPECT_EQ(out[1].pid, 2u);
  EXPECT_TRUE(out[1].spans.empty());

  // No groups at all is legal too.
  ASSERT_TRUE(DecodeSpans(EncodeSpans({}), &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(FederationTest, MultiProcessChromeTraceStitching) {
  const uint64_t trace_id = 0xabc;
  std::vector<ProcessSpans> processes;
  ProcessSpans router;
  router.process_name = "router";
  router.pid = 1;
  Span root;
  root.trace_id = trace_id;
  root.span_id = 0x10;
  root.name = "route query";
  root.dur_us = 100;
  router.spans.push_back(root);
  ProcessSpans shard;
  shard.process_name = "shard 0 (127.0.0.1:7501)";
  shard.pid = 2;
  Span child;
  child.trace_id = trace_id;
  child.span_id = 0x20;
  child.parent_span = 0x10;  // crossed the wire with the request
  child.name = "serve query";
  child.dur_us = 60;
  shard.spans.push_back(child);
  processes.push_back(router);
  processes.push_back(shard);

  const std::string json = RenderChromeTrace(processes);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  // One process_name metadata event per process, with its pid.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"router\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"shard 0 (127.0.0.1:7501)\""),
            std::string::npos);
  // Span events carry their owning pid so the viewer draws two tracks.
  EXPECT_NE(json.find("\"name\":\"route query\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"serve query\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  // The cross-process parent link survives into the event args.
  const size_t child_pos = json.find("\"name\":\"serve query\"");
  ASSERT_NE(child_pos, std::string::npos);
  const size_t obj_start = json.rfind('{', child_pos);
  const size_t obj_end = json.find('}', child_pos);
  const std::string child_event =
      json.substr(obj_start, obj_end - obj_start + 1);
  EXPECT_NE(child_event.find("\"parent_span\":\"10\""),
            std::string::npos)
      << child_event;
}

// -------------------------------------------------------------- Trace

TEST(TraceTest, ContextIsScopedPerThread) {
  EXPECT_FALSE(CurrentTrace().active());
  {
    ScopedTraceContext outer({41, 1});
    EXPECT_EQ(CurrentTrace().trace_id, 41u);
    {
      ScopedTraceContext inner({42, 2});
      EXPECT_EQ(CurrentTrace().trace_id, 42u);
      std::thread([] {
        // A fresh thread never inherits another thread's context.
        EXPECT_FALSE(CurrentTrace().active());
      }).join();
    }
    EXPECT_EQ(CurrentTrace().trace_id, 41u);
  }
  EXPECT_FALSE(CurrentTrace().active());
}

TEST(TraceTest, RecorderKeepsTraceSpansAndDropsUntraced) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  const uint64_t trace = NewTraceId();
  ASSERT_NE(trace, 0u);
  const uint64_t root = recorder.NewSpanId();
  recorder.Record(trace, root, 0, "root", 10.0, 5.0);
  recorder.Record(trace, recorder.NewSpanId(), root, "child", 11.0, 1.0);
  recorder.Record(0, recorder.NewSpanId(), 0, "untraced", 0.0, 1.0);  // no-op

  const std::vector<Span> spans = recorder.SpansForTrace(trace);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[1].name, "child");
  EXPECT_EQ(spans[1].parent_span, root);
  EXPECT_EQ(recorder.Spans().size(), 2u);

  const std::string json =
      RenderChromeTrace({{"gtpq", 1, recorder.Spans()}});
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  EXPECT_NE(json.find("\"name\":\"root\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  recorder.Clear();
}

TEST(TraceTest, RingOverwritesOldestBeyondCapacity) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  const uint64_t trace = NewTraceId();
  const size_t n = TraceRecorder::kCapacity + 10;
  for (size_t i = 0; i < n; ++i) {
    recorder.Record(trace, recorder.NewSpanId(), 0,
                    "span" + std::to_string(i), static_cast<double>(i), 1.0);
  }
  const std::vector<Span> spans = recorder.Spans();
  ASSERT_EQ(spans.size(), TraceRecorder::kCapacity);
  // Oldest first, and the 10 oldest spans fell off the front.
  EXPECT_EQ(spans.front().name, "span10");
  EXPECT_EQ(spans.back().name, "span" + std::to_string(n - 1));
  EXPECT_GE(recorder.total_recorded(), n);
  recorder.Clear();
}

// ------------------------------------------------------------ Slowlog

TEST(SlowlogTest, KeepsWorstNWorstFirst) {
  SlowQueryLog log;
  EXPECT_TRUE(log.WouldAdmit(0.001));  // everything admits while empty
  for (size_t i = 0; i < SlowQueryLog::kCapacity + 20; ++i) {
    SlowQueryEntry entry;
    entry.query = std::to_string(i).insert(0, 1, 'q');
    entry.wall_ms = static_cast<double>(i);
    log.Record(std::move(entry));
  }
  const auto entries = log.Entries();
  ASSERT_EQ(entries.size(), SlowQueryLog::kCapacity);
  // The worst kCapacity wall times survive, sorted worst first.
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].wall_ms,
              static_cast<double>(SlowQueryLog::kCapacity + 20 - 1 - i));
  }
  // A query faster than the floor is refused by the pre-check.
  EXPECT_FALSE(log.WouldAdmit(1.0));
  EXPECT_TRUE(log.WouldAdmit(1e9));

  const std::string rendered = log.Render();
  EXPECT_NE(rendered.find("slow query log"), std::string::npos);
  EXPECT_NE(rendered.find("wall_ms"), std::string::npos);

  log.Clear();
  EXPECT_TRUE(log.Entries().empty());
  EXPECT_TRUE(log.WouldAdmit(0.001));
}

TEST(SlowlogTest, RecordBelowFloorIsDroppedUnderLockToo) {
  SlowQueryLog log;
  for (size_t i = 0; i < SlowQueryLog::kCapacity; ++i) {
    SlowQueryEntry entry;
    entry.wall_ms = 100.0 + static_cast<double>(i);
    log.Record(std::move(entry));
  }
  // Bypass WouldAdmit and push a too-fast entry straight at Record —
  // the under-lock re-check must drop it.
  SlowQueryEntry fast;
  fast.wall_ms = 1.0;
  log.Record(std::move(fast));
  for (const auto& entry : log.Entries()) {
    EXPECT_GE(entry.wall_ms, 100.0);
  }
}

}  // namespace
}  // namespace obs
}  // namespace gtpq

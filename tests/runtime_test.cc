// Serving-runtime tests: ThreadPool scheduling, SharedEngineFactory
// stamping, QueryServer batch semantics, and the thread-confinement
// guarantees the runtime rests on (shared oracles with per-thread
// counters). The two-thread smoke tests are the ones the TSan CI job
// exists for.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "baselines/engines.h"
#include "core/gtea.h"
#include "graph/generators.h"
#include "obs/trace.h"
#include "query/query_generator.h"
#include "reachability/contour.h"
#include "runtime/query_server.h"
#include "runtime/thread_pool.h"
#include "tests/test_util.h"

namespace gtpq {
namespace {

using testing::SmallDag;

std::vector<Gtpq> MakeQueryBatch(const DataGraph& g, size_t count,
                                 uint64_t seed_base) {
  std::vector<Gtpq> queries;
  for (uint64_t seed = seed_base; queries.size() < count; ++seed) {
    QueryGenOptions qo;
    qo.num_nodes = 5;
    qo.pc_probability = 0.3;
    qo.predicate_fraction = 0.3;
    qo.output_fraction = 0.8;
    qo.seed = seed;
    auto q = GenerateRandomQueryWithRetry(g, qo);
    if (q.has_value()) queries.push_back(std::move(*q));
    if (seed > seed_base + 10 * count) break;  // generator starved
  }
  return queries;
}

TEST(ThreadPoolTest, RunsEveryTaskAcrossWorkers) {
  constexpr int kTasks = 200;
  std::atomic<int> done{0};
  std::mutex mu;
  std::set<int> seen_workers;
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4u);
    EXPECT_EQ(ThreadPool::CurrentWorkerIndex(), -1);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&] {
        const int index = ThreadPool::CurrentWorkerIndex();
        EXPECT_GE(index, 0);
        EXPECT_LT(index, 4);
        {
          std::lock_guard<std::mutex> lock(mu);
          seen_workers.insert(index);
        }
        done.fetch_add(1);
      });
    }
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(done.load(), kTasks);
  EXPECT_FALSE(seen_workers.empty());
}

TEST(SharedEngineFactoryTest, StampsEnginesForEverySpec) {
  DataGraph g = SmallDag();
  for (const char* spec :
       {"gtea", "gtea:interval", "gtea:sharded:interval", "naive",
        "twigstack", "twig2stack",
        "twigstackd", "hgjoin+", "hgjoin*", "decompose:twigstackd"}) {
    auto factory = SharedEngineFactory::Make(spec, g);
    ASSERT_NE(factory, nullptr) << spec;
    auto a = factory->Create();
    auto b = factory->Create();
    ASSERT_NE(a, nullptr) << spec;
    ASSERT_NE(b, nullptr) << spec;
    EXPECT_EQ(a->name(), b->name());
  }
  EXPECT_EQ(SharedEngineFactory::Make("nonsense", g), nullptr);
  EXPECT_EQ(SharedEngineFactory::Make("gtea:nonsense", g), nullptr);
}

TEST(SharedEngineFactoryTest, WorkersShareOneOracle) {
  // Two GTEA engines stamped from one factory must report identical
  // per-query #index: they share one prebuilt oracle rather than each
  // building (and possibly chain-decomposing differently) their own.
  DataGraph g = RandomDag({.num_nodes = 80,
                           .avg_degree = 2.2,
                           .num_labels = 5,
                           .locality = 1.0,
                           .seed = 21});
  auto factory = SharedEngineFactory::Make("gtea", g);
  ASSERT_NE(factory, nullptr);
  auto a = factory->Create();
  auto b = factory->Create();
  auto q = GenerateRandomQueryWithRetry(
      g, {.num_nodes = 5, .output_fraction = 1.0, .seed = 7});
  ASSERT_TRUE(q.has_value());
  auto ra = a->Evaluate(*q);
  auto rb = b->Evaluate(*q);
  EXPECT_EQ(ra, rb);
  EXPECT_EQ(a->stats().index_lookups, b->stats().index_lookups);
}

TEST(QueryServerTest, BatchMatchesSequentialEngine) {
  DataGraph g = SmallDag();
  std::vector<Gtpq> queries = MakeQueryBatch(g, 12, 100);
  ASSERT_FALSE(queries.empty());

  GteaEngine reference(g);
  QueryServer server(g, {.num_threads = 3});
  EXPECT_EQ(server.num_threads(), 3u);
  EXPECT_EQ(server.engine_name(), "gtea[contour]");

  auto results = server.EvaluateBatch(queries);
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(results[i], reference.Evaluate(queries[i])) << "query " << i;
  }
  EXPECT_EQ(server.serving_stats().queries, queries.size());
}

TEST(QueryServerTest, ServesEverySpecFamily) {
  DataGraph g = SmallDag();
  std::vector<Gtpq> queries = MakeQueryBatch(g, 6, 400);
  ASSERT_FALSE(queries.empty());
  BruteForceEngine naive(g);
  for (const char* spec :
       {"gtea", "gtea:sharded:interval", "naive", "twigstackd"}) {
    QueryServer server(g, {.num_threads = 2, .engine_spec = spec});
    auto results = server.EvaluateBatch(queries);
    ASSERT_EQ(results.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(results[i], naive.Evaluate(queries[i]))
          << spec << " query " << i;
    }
  }
}

TEST(QueryServerTest, StatsAggregateAcrossWorkers) {
  DataGraph g = RandomDag({.num_nodes = 100,
                           .avg_degree = 2.2,
                           .num_labels = 5,
                           .locality = 1.0,
                           .seed = 11});
  std::vector<Gtpq> queries = MakeQueryBatch(g, 16, 30);
  ASSERT_GE(queries.size(), 8u);

  QueryServer server(g, {.num_threads = 4});
  server.EvaluateBatch(queries);
  const ServingStats snapshot = server.serving_stats();
  EXPECT_EQ(snapshot.queries, queries.size());
  EXPECT_GT(snapshot.work.input_nodes, 0u);
  EXPECT_GT(snapshot.work.index_lookups, 0u);

  // Aggregates must equal a sequential engine's sums: per-worker stat
  // confinement means nothing is double counted or lost.
  GteaEngine reference(g);
  EngineStats expect;
  for (const Gtpq& q : queries) {
    reference.Evaluate(q);
    expect += reference.stats();
  }
  EXPECT_EQ(snapshot.work.input_nodes, expect.input_nodes);
  EXPECT_EQ(snapshot.work.index_lookups, expect.index_lookups);
  EXPECT_EQ(snapshot.work.intermediate_size, expect.intermediate_size);
}

// Checks a traced evaluation's stage spans, oldest first: one span per
// stage that ran (a prefix of the pipeline, since stages only stop
// early), each under `parent`, back to back inside [begin_us, end_us].
// Returns how many stages ran.
size_t ExpectStageSpans(std::span<const obs::Span> stages, uint64_t parent,
                        double begin_us, double end_us) {
  constexpr double kSlackUs = 1e-3;  // NowMicros round-off
  EXPECT_GE(stages.size(), 2u);  // match and prune_down always run
  EXPECT_LE(stages.size(), kNumStages);
  double cursor_us = begin_us;
  for (size_t s = 0; s < stages.size() && s < kNumStages; ++s) {
    EXPECT_EQ(stages[s].name, StageName(static_cast<Stage>(s)));
    EXPECT_EQ(stages[s].parent_span, parent);
    EXPECT_GE(stages[s].start_us + kSlackUs, cursor_us);
    cursor_us = stages[s].start_us + stages[s].dur_us;
  }
  EXPECT_LE(cursor_us, end_us + kSlackUs);
  return stages.size();
}

TEST(StageSpanTest, GteaRecordsOneSpanPerStageWhereItRuns) {
  DataGraph g = SmallDag();
  std::vector<Gtpq> queries = MakeQueryBatch(g, 12, 100);
  ASSERT_FALSE(queries.empty());
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();

  // A bare engine under a thread's trace context.
  GteaEngine engine(g);
  size_t full_runs = 0;
  for (const Gtpq& q : queries) {
    const obs::TraceContext trace{obs::NewTraceId(), recorder.NewSpanId()};
    const double begin_us = obs::NowMicros();
    {
      obs::ScopedTraceContext scope(trace);
      engine.Evaluate(q);
    }
    const size_t ran =
        ExpectStageSpans(recorder.SpansForTrace(trace.trace_id),
                         trace.parent_span, begin_us, obs::NowMicros());
    for (size_t s = ran; s < kNumStages; ++s) {
      EXPECT_EQ(engine.stats().stage_ms[s], 0.0);
    }
    if (ran == kNumStages) ++full_runs;
  }
  EXPECT_GT(full_runs, 0u);

  // Served and traced: the stages hang under the query's evaluate span,
  // which completes last and hangs under the caller's parent.
  QueryServer server(g, {.num_threads = 3});
  std::vector<obs::TraceContext> traces;
  for (size_t i = 0; i < queries.size(); ++i) {
    traces.push_back({obs::NewTraceId(), recorder.NewSpanId()});
  }
  server.EvaluateBatch(queries, nullptr, GteaOptions{}, traces);
  for (const obs::TraceContext& trace : traces) {
    std::vector<obs::Span> spans = recorder.SpansForTrace(trace.trace_id);
    ASSERT_FALSE(spans.empty());
    const obs::Span evaluate = spans.back();
    spans.pop_back();
    EXPECT_EQ(evaluate.name, "evaluate");
    EXPECT_EQ(evaluate.parent_span, trace.parent_span);
    ExpectStageSpans(spans, evaluate.span_id, evaluate.start_us,
                     evaluate.start_us + evaluate.dur_us);
  }

  // Untraced serving records nothing.
  const uint64_t before = recorder.total_recorded();
  server.EvaluateBatch(queries);
  EXPECT_EQ(recorder.total_recorded(), before);
}

// Satellite check: per-query counters are instance-local and
// data-race-free when two engines share one oracle from two threads.
// Each thread must observe exactly the counters of its own engine —
// the same values a solo run produces — and TSan must stay quiet.
TEST(ThreadConfinementTest, SharedOracleStatsStayPerThread) {
  DataGraph g = RandomDag({.num_nodes = 120,
                           .avg_degree = 2.5,
                           .num_labels = 6,
                           .locality = 1.0,
                           .seed = 9});
  auto oracle = std::make_shared<const ContourIndex>(
      ContourIndex::Build(g.graph()));
  auto q1 = GenerateRandomQueryWithRetry(
      g, {.num_nodes = 5, .output_fraction = 1.0, .seed = 41});
  auto q2 = GenerateRandomQueryWithRetry(
      g, {.num_nodes = 6, .output_fraction = 1.0, .seed = 77});
  ASSERT_TRUE(q1.has_value());
  ASSERT_TRUE(q2.has_value());

  // Solo baselines.
  uint64_t solo1 = 0, solo2 = 0;
  QueryResult r1, r2;
  {
    GteaEngine e1(g, oracle);
    r1 = e1.Evaluate(*q1);
    solo1 = e1.stats().index_lookups;
    GteaEngine e2(g, oracle);
    r2 = e2.Evaluate(*q2);
    solo2 = e2.stats().index_lookups;
  }

  constexpr int kRounds = 25;
  auto run = [&](const Gtpq& q, const QueryResult& expected,
                 uint64_t solo, const char* tag) {
    GteaEngine engine(g, oracle);
    for (int i = 0; i < kRounds; ++i) {
      auto r = engine.Evaluate(q);
      ASSERT_EQ(r, expected) << tag;
      ASSERT_EQ(engine.stats().index_lookups, solo)
          << tag << ": cross-thread counter bleed";
    }
  };
  std::thread t1([&] { run(*q1, r1, solo1, "t1"); });
  std::thread t2([&] { run(*q2, r2, solo2, "t2"); });
  t1.join();
  t2.join();
}

// The same confinement must hold for engines whose shared index is not
// the GTEA oracle: TwigStackD resets the shared SSPI's counters inside
// Evaluate, which was a data race before stats became thread-local.
TEST(ThreadConfinementTest, TwigStackDSharedSspiSmoke) {
  DataGraph g = RandomTreeWithCrossEdges({.num_nodes = 150,
                                          .max_depth = 6,
                                          .cross_edge_fraction = 0.2,
                                          .num_labels = 5,
                                          .seed = 4});
  auto factory = SharedEngineFactory::Make("twigstackd", g);
  ASSERT_NE(factory, nullptr);
  auto q = GenerateRandomQueryWithRetry(
      g, {.num_nodes = 4, .output_fraction = 1.0, .seed = 15});
  ASSERT_TRUE(q.has_value());

  auto solo_engine = factory->Create();
  const QueryResult expected = solo_engine->Evaluate(*q);
  const uint64_t solo_index = solo_engine->stats().index_lookups;

  auto worker = [&] {
    auto engine = factory->Create();
    for (int i = 0; i < 25; ++i) {
      ASSERT_EQ(engine->Evaluate(*q), expected);
      ASSERT_EQ(engine->stats().index_lookups, solo_index);
    }
  };
  std::thread t1(worker);
  std::thread t2(worker);
  t1.join();
  t2.join();
}

}  // namespace
}  // namespace gtpq

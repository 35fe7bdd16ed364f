// Socket-level tests for the gtpq-wire front-end: codec round trips
// for every frame type (trace context in the header, one fixed layout
// per payload), malformed/truncated/oversized frame rejection,
// admission control, over-limit responses degrading to typed errors,
// pipelined multi-client differentials against the in-process
// QueryServer, and wire APPLY_UPDATES snapshot consistency under
// concurrent query load (this last one runs in the TSan CI job).
#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <span>

#include <gtest/gtest.h>

#include "dynamic/stream_gen.h"
#include "storage/serializer.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/federation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/query_generator.h"
#include "runtime/engine_factory.h"
#include "runtime/query_server.h"
#include "tests/test_util.h"

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include <chrono>
#include <optional>

namespace gtpq {
namespace {

using net::Frame;
using net::FrameDecoder;
using net::FrameType;

// ------------------------------------------------------------- codec

TEST(WireCodecTest, FrameRoundTripsEveryType) {
  const struct {
    FrameType type;
    std::string payload;
  } cases[] = {
      {FrameType::kHello, net::EncodeHello()},
      {FrameType::kBatch,
       net::EncodeBatchRequest({7, {"q0\n", "q1\n", ""}})},
      {FrameType::kApplyUpdates, "gtpq-updates v1\naddedge 0 1\n"},
      {FrameType::kProbe, net::EncodeProbeRequest({false, {1}, {2, 3}})},
      {FrameType::kObserve,
       net::EncodeObserveRequest(net::ObserveKind::kMetricsSnapshot)},
      {FrameType::kError,
       net::EncodeError(Status::InvalidArgument("boom"))},
      {FrameType::kHelloOk,
       net::EncodeHelloOk({3, 999, "gtea[contour]"})},
      {FrameType::kBatchResult,
       net::EncodeBatchResult({6, {{{0}, {{1}, {2}}}, {{1}, {}}}})},
      {FrameType::kApplyOk, net::EncodeApplyOk({9, 4})},
      {FrameType::kProbeResult, net::EncodeProbeResult({4, 1, 2, {0x01}})},
      {FrameType::kObserveResult, "slow query log\n"},
  };
  // One buffer carrying all frames, drip-fed a byte at a time, checks
  // both pipelining and resumable partial decode. Each frame carries its
  // own trace context in the header.
  const auto trace_of = [](uint64_t id) {
    return obs::TraceContext{id * 1000 + 1, id * 1000 + 2};
  };
  std::string bytes;
  uint64_t id = 100;
  for (const auto& c : cases) {
    net::EncodeFrame(c.type, id, trace_of(id), c.payload, &bytes);
    ++id;
  }
  FrameDecoder decoder;
  std::vector<Frame> decoded;
  for (size_t i = 0; i < bytes.size(); ++i) {
    decoder.Append(bytes.data() + i, 1);
    while (true) {
      auto frame = decoder.Next();
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      if (!frame->has_value()) break;
      decoded.push_back(std::move(**frame));
    }
  }
  ASSERT_EQ(decoded.size(), std::size(cases));
  id = 100;
  for (size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded[i].type, cases[i].type);
    EXPECT_EQ(decoded[i].request_id, id);
    EXPECT_EQ(decoded[i].trace.trace_id, trace_of(id).trace_id);
    EXPECT_EQ(decoded[i].trace.parent_span, trace_of(id).parent_span);
    EXPECT_EQ(decoded[i].payload, cases[i].payload);
    ++id;
  }
  EXPECT_EQ(decoder.buffered(), 0u);

  // v6 retired STATS (0x04) and STATS_RESULT (0x84): a v6 decoder
  // refuses them as unknown types, with a valid CRC.
  for (const uint8_t retired : {0x04, 0x84}) {
    EXPECT_FALSE(net::IsKnownType(retired)) << int{retired};
    std::string frame;
    net::EncodeFrame(static_cast<FrameType>(retired), 1, {}, "", &frame);
    FrameDecoder strict;
    strict.Append(frame.data(), frame.size());
    const auto next = strict.Next();
    EXPECT_EQ(next.status().code(), StatusCode::kParseError) << int{retired};
  }
}

TEST(WireCodecTest, PayloadCodecsRoundTrip) {
  net::HelloOk hello{7, 1234, "gtea[delta:contour]"};
  net::HelloOk hello2;
  ASSERT_TRUE(
      net::DecodeHelloOk(net::EncodeHelloOk(hello), &hello2).ok());
  EXPECT_EQ(hello2.epoch, 7u);
  EXPECT_EQ(hello2.graph_nodes, 1234u);
  EXPECT_EQ(hello2.engine, "gtea[delta:contour]");

  net::BatchRequest batch{0, {"a\n", "b\n"}};
  net::BatchRequest batch2;
  ASSERT_TRUE(net::DecodeBatchRequest(net::EncodeBatchRequest(batch), {},
                                      &batch2)
                  .ok());
  EXPECT_EQ(batch2.texts, batch.texts);
  // Batch count above the limit is an admission error, not a crash.
  net::WireLimits tiny;
  tiny.max_batch_queries = 1;
  EXPECT_EQ(net::DecodeBatchRequest(net::EncodeBatchRequest(batch), tiny,
                                    &batch2)
                .code(),
            StatusCode::kInvalidArgument);

  net::WireBatchResult batch_result{
      2, {{{0}, {{3}}}, {{0, 1}, {{4, 5}, {6, 7}}}}};
  net::WireBatchResult batch_result2;
  ASSERT_TRUE(net::DecodeBatchResult(
                  net::EncodeBatchResult(batch_result), &batch_result2)
                  .ok());
  EXPECT_EQ(batch_result2.epoch, 2u);
  ASSERT_EQ(batch_result2.results.size(), 2u);
  EXPECT_EQ(batch_result2.results[1], batch_result.results[1]);

  const Status carried =
      net::DecodeError(net::EncodeError(Status::NotFound("gone")));
  EXPECT_EQ(carried.code(), StatusCode::kNotFound);
  EXPECT_EQ(carried.message(), "gone");
}

// gtpq-wire v5 sends one query as a BATCH of one, pinned byte for byte:
// frame length, the header, u64 result_limit, u32 count = 1, the
// u32-length-prefixed text, then the CRC-32 of everything after the
// length. Its answer is a BATCH_RESULT of one, and the one-query
// decoders reject any other count.
TEST(WireCodecTest, OneQueryBatchKeepsTheV5Layout) {
  const std::vector<uint8_t> body = {
      0x02,                         // type: BATCH
      7, 0, 0, 0, 0, 0, 0, 0,       // request id
      0x11, 0, 0, 0, 0, 0, 0, 0,    // trace id
      0x22, 0, 0, 0, 0, 0, 0, 0,    // parent span
      64, 0, 0, 0, 0, 0, 0, 0,      // result limit
      1, 0, 0, 0,                   // one query
      2, 0, 0, 0, 'q', '\n',        // its text
  };
  const uint32_t crc = storage::Crc32(body.data(), body.size());
  std::string expected = {47, 0, 0, 0};  // length: body + CRC
  expected.append(body.begin(), body.end());
  for (int shift = 0; shift < 32; shift += 8) {
    expected.push_back(static_cast<char>(crc >> shift));
  }
  std::string frame;
  net::EncodeFrame(FrameType::kBatch, 7, {0x11, 0x22},
                   net::EncodeQueryRequest({64, "q\n"}), &frame);
  EXPECT_EQ(frame, expected);

  const net::WireResult result{5, {{0, 2}, {{1, 4}}}};
  EXPECT_EQ(net::EncodeResult(result),
            net::EncodeBatchResult({5, {result.result}}));

  net::QueryRequest query;
  net::WireResult one;
  for (const size_t n : {0, 2}) {
    EXPECT_EQ(net::DecodeQueryRequest(
                  net::EncodeBatchRequest({0, std::vector<std::string>(n)}),
                  &query)
                  .code(),
              StatusCode::kParseError);
    EXPECT_EQ(net::DecodeResult(net::EncodeBatchResult(
                                    {5, std::vector<QueryResult>(n)}),
                                &one)
                  .code(),
              StatusCode::kParseError);
  }
}

// Every payload has exactly one layout: each strict prefix of an
// encoded payload, and the payload with one byte appended, must be
// rejected.
TEST(WireCodecTest, FixedLayoutsRejectPrefixesAndTrailingBytes) {
  net::ProbeResult probe_result;
  probe_result.rows = 2;
  probe_result.cols = 5;
  probe_result.bits = {0xff, 0x03};
  const struct {
    const char* name;
    std::string payload;
    Status (*decode)(std::string_view);
  } cases[] = {
      {"BATCH", net::EncodeBatchRequest({7, {"q0\n", "q1\n"}}),
       [](std::string_view p) {
         net::BatchRequest out;
         return net::DecodeBatchRequest(p, {}, &out);
       }},
      {"PROBE", net::EncodeProbeRequest({true, {5, 6}, {1, 2, 3}}),
       [](std::string_view p) {
         net::ProbeRequest out;
         return net::DecodeProbeRequest(p, &out);
       }},
      {"OBSERVE", net::EncodeObserveRequest(net::ObserveKind::kSpans, 9),
       [](std::string_view p) {
         net::ObserveKind kind;
         uint64_t filter = 0;
         return net::DecodeObserveRequest(p, &kind, &filter);
       }},
      {"BATCH_RESULT",
       net::EncodeBatchResult({6, {{{0}, {{1}, {2}}}, {{1}, {}}}}),
       [](std::string_view p) {
         net::WireBatchResult out;
         return net::DecodeBatchResult(p, &out);
       }},
      {"HELLO_OK", net::EncodeHelloOk({3, 999, "gtea[contour]"}),
       [](std::string_view p) {
         net::HelloOk out;
         return net::DecodeHelloOk(p, &out);
       }},
      {"APPLY_OK", net::EncodeApplyOk({9, 4}),
       [](std::string_view p) {
         net::ApplyOk out;
         return net::DecodeApplyOk(p, &out);
       }},
      {"PROBE_RESULT", net::EncodeProbeResult(probe_result),
       [](std::string_view p) {
         net::ProbeResult out;
         return net::DecodeProbeResult(p, &out);
       }},
  };
  for (const auto& c : cases) {
    ASSERT_TRUE(c.decode(c.payload).ok()) << c.name;
    for (size_t cut = 0; cut < c.payload.size(); ++cut) {
      EXPECT_FALSE(c.decode(c.payload.substr(0, cut)).ok())
          << c.name << " cut at " << cut << " of " << c.payload.size();
    }
    EXPECT_FALSE(c.decode(c.payload + '\0').ok())
        << c.name << " with a trailing byte";
  }
}

// MaxProbeNodes/MaxProbeCells size BoundaryClosure's probe tiles, so
// they must agree with the real encoder and decoder: a PROBE carrying
// MaxProbeNodes ids and a PROBE_RESULT carrying MaxProbeCells cells
// each fit one frame, and one more does not.
TEST(WireCodecTest, ProbeLimitsMatchTheEncoder) {
  net::WireLimits limits;
  limits.max_frame_bytes = 4096;
  const auto decodes = [&limits](FrameType type, const std::string& payload) {
    std::string bytes;
    net::EncodeFrame(type, 1, {2, 3}, payload, &bytes);
    FrameDecoder decoder(limits);
    decoder.Append(bytes.data(), bytes.size());
    auto frame = decoder.Next();
    return frame.ok() && frame->has_value();
  };

  net::ProbeRequest request;
  request.pivots = {0};
  request.ids.assign(net::MaxProbeNodes(limits) - 1, 0);
  EXPECT_TRUE(decodes(FrameType::kProbe, net::EncodeProbeRequest(request)));
  request.ids.push_back(0);
  EXPECT_FALSE(decodes(FrameType::kProbe, net::EncodeProbeRequest(request)));

  net::ProbeResult result;
  result.rows = 1;
  result.cols = static_cast<uint32_t>(net::MaxProbeCells(limits));
  result.bits.assign((result.cols + 7) / 8, 0);
  EXPECT_TRUE(
      decodes(FrameType::kProbeResult, net::EncodeProbeResult(result)));
  ++result.cols;
  result.bits.assign((result.cols + 7) / 8, 0);
  EXPECT_FALSE(
      decodes(FrameType::kProbeResult, net::EncodeProbeResult(result)));
}

TEST(WireCodecTest, ObserveCodecsRoundTripAndValidate) {
  for (net::ObserveKind kind :
       {net::ObserveKind::kSlowlog, net::ObserveKind::kMetricsSnapshot,
        net::ObserveKind::kSpans}) {
    net::ObserveKind out;
    uint64_t filter = 7;
    ASSERT_TRUE(net::DecodeObserveRequest(net::EncodeObserveRequest(kind),
                                          &out, &filter)
                    .ok());
    EXPECT_EQ(out, kind);
    EXPECT_EQ(filter, 0u);
  }
  // Kind 2 (v5's health report) and every kind past kSpans (v4's
  // rendered kinds sat there) are rejected.
  for (int raw = 2; raw < 256; ++raw) {
    if (raw == static_cast<int>(net::ObserveKind::kSpans)) continue;
    storage::Writer w;
    w.WriteU8(static_cast<uint8_t>(raw));
    w.WriteU64(0);
    net::ObserveKind out;
    uint64_t filter = 0;
    EXPECT_EQ(net::DecodeObserveRequest(w.buffer(), &out, &filter).code(),
              StatusCode::kParseError)
        << raw;
  }
  {
    // The trace-id filter round-trips.
    const std::string encoded =
        net::EncodeObserveRequest(net::ObserveKind::kSpans, 0xabcdef);
    net::ObserveKind out;
    uint64_t filter = 0;
    ASSERT_TRUE(net::DecodeObserveRequest(encoded, &out, &filter).ok());
    EXPECT_EQ(out, net::ObserveKind::kSpans);
    EXPECT_EQ(filter, 0xabcdefu);
  }
  EXPECT_TRUE(net::IsRequestType(
      static_cast<uint8_t>(FrameType::kObserve)));
  EXPECT_FALSE(net::IsRequestType(
      static_cast<uint8_t>(FrameType::kObserveResult)));
  EXPECT_TRUE(net::IsKnownType(
      static_cast<uint8_t>(FrameType::kObserveResult)));
}

TEST(WireCodecTest, DecoderRejectsMalformedFrames) {
  std::string good;
  net::EncodeFrame(FrameType::kHello, 1, {}, net::EncodeHello(), &good);

  // Truncation is not an error — the decoder just waits for more.
  {
    FrameDecoder decoder;
    decoder.Append(good.data(), good.size() - 1);
    auto frame = decoder.Next();
    ASSERT_TRUE(frame.ok());
    EXPECT_FALSE(frame->has_value());
  }
  // Flipped payload/CRC byte.
  {
    std::string bad = good;
    bad[bad.size() - 1] ^= 0x40;
    FrameDecoder decoder;
    decoder.Append(bad.data(), bad.size());
    EXPECT_FALSE(decoder.Next().ok());
  }
  // Declared length below the frame-header minimum.
  {
    std::string bad;
    storage::Writer w;
    w.WriteU32(4);
    bad = w.buffer();
    bad.append(8, '\0');
    FrameDecoder decoder;
    decoder.Append(bad.data(), bad.size());
    EXPECT_FALSE(decoder.Next().ok());
  }
  // Oversized declared length is rejected before buffering the body.
  {
    net::WireLimits limits;
    limits.max_frame_bytes = 64;
    std::string bad;
    storage::Writer w;
    w.WriteU32(1 << 20);
    bad = w.buffer();
    FrameDecoder decoder(limits);
    decoder.Append(bad.data(), bad.size());
    EXPECT_FALSE(decoder.Next().ok());
  }
  // Unknown frame type (valid CRC).
  {
    std::string bad;
    net::EncodeFrame(static_cast<FrameType>(0x33), 1, {}, "", &bad);
    FrameDecoder decoder;
    decoder.Append(bad.data(), bad.size());
    EXPECT_FALSE(decoder.Next().ok());
  }
}

// ------------------------------------------------------------ server

std::vector<Gtpq> MakeQueries(const DataGraph& g, size_t count,
                              uint64_t seed_base) {
  std::vector<Gtpq> queries;
  for (uint64_t seed = seed_base;
       queries.size() < count && seed < seed_base + 40 * count; ++seed) {
    QueryGenOptions qo;
    qo.num_nodes = 4 + seed % 3;
    qo.pc_probability = 0.25;
    qo.predicate_fraction = 0.3;
    qo.output_fraction = 0.8;
    qo.seed = seed * 29 + 1;
    auto q = GenerateRandomQueryWithRetry(g, qo);
    if (q.has_value()) queries.push_back(std::move(*q));
  }
  return queries;
}

std::vector<std::string> ToTexts(const DataGraph& g,
                                 const std::vector<Gtpq>& queries) {
  std::vector<std::string> texts;
  for (const Gtpq& q : queries) texts.push_back(q.ToString(g.attr_names()));
  return texts;
}

/// A counter's value in a metrics snapshot; 0 when absent.
uint64_t CounterIn(const obs::MetricsSnapshot& snapshot,
                   std::string_view name) {
  for (const auto& [n, v] : snapshot.counters) {
    if (n == name) return v;
  }
  return 0;
}

/// How many samples a histogram in a metrics snapshot holds; 0 when
/// absent.
uint64_t HistogramCountIn(const obs::MetricsSnapshot& snapshot,
                          std::string_view name) {
  for (const auto& [n, h] : snapshot.histograms) {
    if (n == name) return h.TotalCount();
  }
  return 0;
}

/// Starts a server or skips the test on non-epoll platforms.
#define START_OR_SKIP(server)                                   \
  do {                                                          \
    const Status _st = (server).Start();                        \
    if (_st.code() == StatusCode::kUnimplemented) {             \
      GTEST_SKIP() << _st.ToString();                           \
    }                                                           \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                    \
  } while (0)

TEST(NetServerTest, HelloQueryBatchRoundTrip) {
  DataGraph g = RandomDag({.num_nodes = 60,
                           .avg_degree = 2.2,
                           .num_labels = 6,
                           .locality = 1.0,
                           .seed = 13});
  const std::vector<Gtpq> queries = MakeQueries(g, 6, 300);
  ASSERT_GE(queries.size(), 3u) << "generator starved";
  const std::vector<std::string> texts = ToTexts(g, queries);

  net::NetServerOptions options;
  options.runtime.num_threads = 2;
  net::NetServer server(g, options);
  START_OR_SKIP(server);

  const std::vector<QueryResult> expected =
      server.runtime().EvaluateBatch(queries);

  net::NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_EQ(client.server_info().engine, "gtea[contour]");
  EXPECT_EQ(client.server_info().graph_nodes, g.NumNodes());
  EXPECT_EQ(client.server_info().epoch, 0u);

  // Single queries, one by one.
  for (size_t i = 0; i < texts.size(); ++i) {
    auto result = client.Query(texts[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->epoch, 0u);
    EXPECT_EQ(result->result, expected[i]) << "query " << i;
  }
  // The same workload as one BATCH frame.
  auto batch = client.QueryBatch(texts);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->results, expected);

  // Result limit is honored per request.
  auto limited = client.Query(texts[0], 1);
  ASSERT_TRUE(limited.ok());
  EXPECT_LE(limited->result.tuples.size(), 1u);

  // The runtime counted the warmup batch, the wire singles, the wire
  // batch and the limited query; a fresh HELLO still reports epoch 0.
  EXPECT_EQ(server.runtime().serving_stats().queries, 3 * texts.size() + 1);
  ASSERT_TRUE(client.Hello().ok());
  EXPECT_EQ(client.server_info().epoch, 0u);
  EXPECT_EQ(client.server_info().engine, "gtea[contour]");

  // Malformed query text is a per-request typed error; the connection
  // survives and keeps serving.
  auto bad = client.Query("backbone a nowhere ad *\n");
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  auto again = client.Query(texts[0]);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->result, expected[0]);

  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(NetServerTest, ObserveExportsAndTracedPipelining) {
  DataGraph g = RandomDag({.num_nodes = 60,
                           .avg_degree = 2.2,
                           .num_labels = 6,
                           .locality = 1.0,
                           .seed = 13});
  const std::vector<Gtpq> queries = MakeQueries(g, 4, 300);
  ASSERT_GE(queries.size(), 2u) << "generator starved";
  const std::vector<std::string> texts = ToTexts(g, queries);

  net::NetServerOptions options;
  options.runtime.num_threads = 2;
  net::NetServer server(g, options);
  START_OR_SKIP(server);

  net::NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto before = client.Metrics();
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // Trace-tagged frames through NetClient pipelining: answers must be
  // byte-compatible with untraced ones, and every request id resolves.
  std::vector<net::WireResult> untraced;
  for (const std::string& text : texts) {
    auto result = client.Query(text);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    untraced.push_back(std::move(*result));
  }
  const uint64_t trace_id = obs::NewTraceId();
  std::vector<uint64_t> ids;
  {
    const obs::ScopedTraceContext traced({trace_id, 1});
    for (const std::string& text : texts) {
      auto id = client.SendBatch({text});
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids.push_back(*id);
    }
  }
  // Collect in reverse order to exercise response parking.
  for (size_t i = ids.size(); i-- > 0;) {
    auto payload =
        client.WaitForResponse(ids[i], FrameType::kBatchResult);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    net::WireResult result;
    ASSERT_TRUE(net::DecodeResult(*payload, &result).ok());
    EXPECT_EQ(result.result, untraced[i].result) << "query " << i;
  }
  // A traced BATCH rides the same connection.
  auto batch = [&] {
    const obs::ScopedTraceContext traced({trace_id, 1});
    return client.QueryBatch(texts);
  }();
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->results.size(), texts.size());

  // SLOWLOG: renders (the worst of this tiny load is still a query).
  auto slowlog = client.Observe(net::ObserveKind::kSlowlog);
  ASSERT_TRUE(slowlog.ok()) << slowlog.status().ToString();
  EXPECT_NE(slowlog->find("slow query log"), std::string::npos);

  // METRICS: the binary snapshot counts every wire query once (the
  // untraced and traced singles and the traced BATCH), and each one ran
  // the match stage once. It keeps full histogram buckets; gteactl
  // renders it as Prometheus text.
  auto snapshot = client.Metrics();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const uint64_t served = 3 * texts.size();
  const auto counter_delta = [&](const std::string& name) {
    return CounterIn(*snapshot, name) - CounterIn(*before, name);
  };
  EXPECT_EQ(counter_delta("gtpq_queries_total"), served);
  EXPECT_GT(counter_delta("gtpq_input_nodes_total"), 0u);
  const std::string match = obs::LabeledName("gtpq_stage_latency_us",
                                             {{"stage", "match"}});
  EXPECT_EQ(HistogramCountIn(*snapshot, match) -
                HistogramCountIn(*before, match),
            served);
  EXPECT_EQ(HistogramCountIn(*snapshot, "gtpq_query_latency_us") -
                HistogramCountIn(*before, "gtpq_query_latency_us"),
            served);
  EXPECT_GT(CounterIn(*snapshot, "gtpq_connections_total"), 0u);

  // SPANS with the trace-id filter: one group for this process, holding
  // only our trace.
  auto groups = client.Spans(trace_id);
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_EQ(groups->size(), 1u);
  EXPECT_EQ((*groups)[0].process_name, "gtpq");
  const std::vector<obs::Span>& spans = (*groups)[0].spans;
  ASSERT_FALSE(spans.empty());
  size_t dispatch_spans = 0;
  for (const obs::Span& span : spans) {
    EXPECT_EQ(span.trace_id, trace_id);
    if (span.name == "dispatch") {
      // Parented by the header's parent_span.
      EXPECT_EQ(span.parent_span, 1u);
      ++dispatch_spans;
    }
  }
  // One per traced single query plus the traced BATCH.
  EXPECT_EQ(dispatch_spans, texts.size() + 1);

  server.Stop();
}

#if defined(__linux__)

/// Minimal raw socket for protocol-violation tests the NetClient
/// cannot express (it always says HELLO first).
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0;
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  void Send(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  /// Reads frames until one arrives, EOF, or an error.
  Result<Frame> ReadFrame() {
    while (true) {
      auto frame = decoder_.Next();
      if (!frame.ok()) return frame.status();
      if (frame->has_value()) return std::move(**frame);
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return Status::Internal("EOF");
      if (n < 0) return Status::Internal("recv failed");
      decoder_.Append(buf, static_cast<size_t>(n));
    }
  }
  /// True once the server closes its end.
  bool WaitForClose() {
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;
      decoder_.Append(buf, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  FrameDecoder decoder_;
};

TEST(NetServerTest, ProtocolViolationsGetTypedErrorsThenClose) {
  DataGraph g = testing::SmallDag();
  net::NetServerOptions options;
  options.runtime.num_threads = 1;
  options.limits.max_frame_bytes = 4096;
  net::NetServer server(g, options);
  START_OR_SKIP(server);
  obs::Counter* protocol_errors =
      obs::Registry::Global().GetCounter("gtpq_protocol_errors_total");
  const uint64_t errors_before = protocol_errors->Value();

  // BATCH before HELLO: typed error, connection stays open.
  {
    RawConn conn(server.port());
    ASSERT_TRUE(conn.connected());
    std::string bytes;
    net::EncodeFrame(FrameType::kBatch, 9, {},
                     net::EncodeQueryRequest({0, "backbone a root *\n"}),
                     &bytes);
    conn.Send(bytes);
    auto frame = conn.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->type, FrameType::kError);
    EXPECT_EQ(frame->request_id, 9u);
    EXPECT_EQ(net::DecodeError(frame->payload).code(),
              StatusCode::kFailedPrecondition);

    // The connection still answers a proper handshake afterwards.
    bytes.clear();
    net::EncodeFrame(FrameType::kHello, 10, {}, net::EncodeHello(), &bytes);
    conn.Send(bytes);
    frame = conn.ReadFrame();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->type, FrameType::kHelloOk);
  }

  // Response frame types from a client are a violation: error + close.
  {
    RawConn conn(server.port());
    ASSERT_TRUE(conn.connected());
    std::string bytes;
    net::EncodeFrame(FrameType::kBatchResult, 3, {}, "", &bytes);
    conn.Send(bytes);
    auto frame = conn.ReadFrame();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->type, FrameType::kError);
    EXPECT_TRUE(conn.WaitForClose());
  }

  // Corrupt CRC: final error frame, then close.
  {
    RawConn conn(server.port());
    ASSERT_TRUE(conn.connected());
    std::string bytes;
    net::EncodeFrame(FrameType::kHello, 1, {}, net::EncodeHello(), &bytes);
    bytes[bytes.size() - 1] ^= 0x11;
    conn.Send(bytes);
    auto frame = conn.ReadFrame();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->type, FrameType::kError);
    EXPECT_TRUE(conn.WaitForClose());
  }

  // Oversized declared frame length: rejected without buffering.
  {
    RawConn conn(server.port());
    ASSERT_TRUE(conn.connected());
    storage::Writer w;
    w.WriteU32(1u << 24);  // past the 4 KiB server limit
    conn.Send(w.buffer());
    auto frame = conn.ReadFrame();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->type, FrameType::kError);
    EXPECT_TRUE(conn.WaitForClose());
  }

  EXPECT_GE(protocol_errors->Value() - errors_before, 3u);
}

#endif  // defined(__linux__)

TEST(NetServerTest, AdmissionControlRejectsWithTypedErrors) {
  DataGraph g = RandomDag({.num_nodes = 40,
                           .avg_degree = 2.0,
                           .num_labels = 5,
                           .locality = 1.0,
                           .seed = 3});
  const std::vector<Gtpq> queries = MakeQueries(g, 2, 700);
  ASSERT_GE(queries.size(), 1u);
  const std::vector<std::string> texts = ToTexts(g, queries);

  // A long coalescing window holds responses back, so in-flight
  // requests pile up deterministically past the per-connection cap.
  net::NetServerOptions options;
  options.runtime.num_threads = 1;
  options.max_inflight_per_conn = 2;
  options.coalesce_max_queries = 64;
  options.coalesce_window_us = 200000;  // 200 ms
  net::NetServer server(g, options);
  START_OR_SKIP(server);

  obs::Counter* rejections =
      obs::Registry::Global().GetCounter("gtpq_admission_rejected_total");
  const uint64_t rejections_before = rejections->Value();
  net::NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  constexpr size_t kSends = 8;
  for (size_t i = 0; i < kSends; ++i) {
    ASSERT_TRUE(client.SendBatch({texts[0]}).ok());
  }
  size_t ok_count = 0, rejected = 0;
  for (size_t i = 0; i < kSends; ++i) {
    auto frame = client.Receive();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    if (frame->type == FrameType::kBatchResult) {
      ++ok_count;
    } else {
      ASSERT_EQ(frame->type, FrameType::kError);
      EXPECT_EQ(net::DecodeError(frame->payload).code(),
                StatusCode::kFailedPrecondition);
      ++rejected;
    }
  }
  EXPECT_EQ(ok_count, 2u);
  EXPECT_EQ(rejected, kSends - 2);
  EXPECT_EQ(rejections->Value() - rejections_before, kSends - 2);

  // A zero-capacity global queue rejects everything typed, too.
  net::NetServerOptions zero = options;
  zero.coalesce_window_us = 100;
  zero.max_pending_requests = 0;
  net::NetServer full(g, zero);
  START_OR_SKIP(full);
  net::NetClient client2;
  ASSERT_TRUE(client2.Connect("127.0.0.1", full.port()).ok());
  auto result = client2.Query(texts[0]);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

// The dispatcher casts the coalescing window to integer microseconds,
// so Start() refuses a window that is not finite or outside [0, 1e6]
// before it binds anything; both ends of the range still serve.
TEST(NetServerTest, StartRejectsOutOfRangeCoalesceWindow) {
  DataGraph g = RandomDag({.num_nodes = 20,
                           .avg_degree = 2.0,
                           .num_labels = 4,
                           .locality = 1.0,
                           .seed = 3});
  for (const double window_us :
       {std::nan(""), std::numeric_limits<double>::infinity(), -1.0, 2e6}) {
    net::NetServerOptions options;
    options.runtime.num_threads = 1;
    options.coalesce_window_us = window_us;
    net::NetServer server(g, options);
    const Status st = server.Start();
    if (st.code() == StatusCode::kUnimplemented) GTEST_SKIP() << st.ToString();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << window_us << ": " << st.ToString();
    EXPECT_FALSE(server.running()) << window_us;
    EXPECT_EQ(server.port(), 0) << window_us;
  }
  for (const double window_us : {0.0, 1e6}) {
    net::NetServerOptions options;
    options.runtime.num_threads = 1;
    options.coalesce_window_us = window_us;
    net::NetServer server(g, options);
    START_OR_SKIP(server);
    EXPECT_TRUE(server.running()) << window_us;
  }
}

// Answers sent inline from the IO thread (OBSERVE here) pass the same
// frame-limit check as dispatched ones: an over-limit answer becomes a
// typed OutOfRange ERROR instead of a frame the client must reject as
// a framing error, and the connection keeps serving.
TEST(NetServerTest, OverLimitInlineResponseIsATypedError) {
  DataGraph g = RandomDag({.num_nodes = 40,
                           .avg_degree = 2.0,
                           .num_labels = 5,
                           .locality = 1.0,
                           .seed = 3});
  const std::vector<Gtpq> queries = MakeQueries(g, 1, 700);
  ASSERT_EQ(queries.size(), 1u);
  const std::string text = ToTexts(g, queries)[0];

  net::NetServerOptions options;
  options.runtime.num_threads = 1;
  options.limits.max_frame_bytes = 2048;
  net::NetServer server(g, options);
  START_OR_SKIP(server);

  net::NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), options.limits).ok());
  ASSERT_TRUE(client.Query(text).ok());
  // The metrics snapshot is the over-limit answer: one series name
  // longer than the frame limit guarantees it.
  obs::Registry::Global().GetCounter(
      "gtpq_test_" + std::string(options.limits.max_frame_bytes, 'x'));
  auto metrics = client.Metrics();
  EXPECT_EQ(metrics.status().code(), StatusCode::kOutOfRange)
      << metrics.status().ToString();
  auto again = client.Query(text);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->result, server.runtime().EvaluateBatch(queries)[0]);
}

TEST(NetServerTest, EightPipelinedClientsMatchInProcessServer) {
  DataGraph g = RandomDag({.num_nodes = 70,
                           .avg_degree = 2.3,
                           .num_labels = 6,
                           .locality = 1.0,
                           .seed = 29});
  const std::vector<Gtpq> queries = MakeQueries(g, 8, 1500);
  ASSERT_GE(queries.size(), 4u) << "generator starved";
  const std::vector<std::string> texts = ToTexts(g, queries);

  net::NetServerOptions options;
  options.runtime.num_threads = 4;
  options.coalesce_max_queries = 16;
  options.coalesce_window_us = 2000;  // force visible grouping
  net::NetServer server(g, options);
  START_OR_SKIP(server);

  // Independent in-process reference (not the server's own runtime).
  QueryServer reference(g, {.num_threads = 2});
  const std::vector<QueryResult> expected =
      reference.EvaluateBatch(queries);

  constexpr size_t kClients = 8;
  constexpr size_t kRounds = 20;
  constexpr size_t kPipeline = 4;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (size_t c = 0; c < kClients; ++c) {
    workers.emplace_back([&, c] {
      net::NetClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        ++failures;
        return;
      }
      size_t sent = 0, done = 0;
      const size_t total = kRounds * texts.size();
      std::unordered_map<uint64_t, size_t> pending;
      while (done < total) {
        while (sent < total && pending.size() < kPipeline) {
          const size_t index = (sent * (c + 1)) % texts.size();
          auto id = client.SendBatch({texts[index]});
          if (!id.ok()) {
            ++failures;
            return;
          }
          pending.emplace(*id, index);
          ++sent;
        }
        auto frame = client.Receive();
        if (!frame.ok() || frame->type != FrameType::kBatchResult) {
          ++failures;
          return;
        }
        auto it = pending.find(frame->request_id);
        if (it == pending.end()) {
          ++failures;
          return;
        }
        net::WireResult result;
        if (!net::DecodeResult(frame->payload, &result).ok() ||
            result.result != expected[it->second]) {
          ++failures;
          return;
        }
        pending.erase(it);
        ++done;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.counters().queries_served,
            kClients * kRounds * texts.size());
  // Coalescing must have packed concurrent singles into shared
  // dispatches (strictly fewer EvaluateBatch calls than queries).
  EXPECT_LT(server.counters().batches_dispatched,
            server.counters().queries_served);
}

// While one wire client streams APPLY_UPDATES, readers pushing BATCH
// frames must always see the golden answers of exactly one epoch —
// never a mix. Mirrors the in-process SnapshotConsistencyTest at the
// wire layer; runs under TSan in CI.
TEST(NetServerTest, WireUpdatesAndQueriesSeeOneEpoch) {
  DataGraph g = RandomDag({.num_nodes = 50,
                           .avg_degree = 2.2,
                           .num_labels = 5,
                           .locality = 1.0,
                           .seed = 23});
  const std::vector<Gtpq> queries = MakeQueries(g, 6, 1200);
  ASSERT_GE(queries.size(), 3u) << "generator starved";
  const std::vector<std::string> texts = ToTexts(g, queries);
  UpdateStreamOptions so;
  so.rounds = 4;
  so.ops_per_round = 6;
  so.del_ratio = 0.4;
  so.seed = 61;
  const std::vector<UpdateBatch> stream = GenerateUpdateStream(g, so);

  // Golden per-epoch answers, computed sequentially up front.
  std::vector<std::vector<QueryResult>> expected;
  GraphDelta view(g.NumNodes());
  std::vector<DataGraph> epoch_graphs;
  {
    auto factory = SharedEngineFactory::Make("gtea", g);
    ASSERT_NE(factory, nullptr);
    auto engine = factory->Create();
    std::vector<QueryResult> epoch0;
    for (const Gtpq& q : queries) epoch0.push_back(engine->Evaluate(q));
    expected.push_back(std::move(epoch0));
  }
  for (const UpdateBatch& batch : stream) {
    ASSERT_TRUE(view.Apply(g.graph(), batch).ok());
    epoch_graphs.push_back(view.MaterializeDataGraph(g));
    auto factory = SharedEngineFactory::Make("gtea", epoch_graphs.back());
    ASSERT_NE(factory, nullptr);
    auto engine = factory->Create();
    std::vector<QueryResult> answers;
    for (const Gtpq& q : queries) answers.push_back(engine->Evaluate(q));
    expected.push_back(std::move(answers));
  }

  net::NetServerOptions options;
  options.runtime.num_threads = 4;
  net::NetServer server(g, options);
  START_OR_SKIP(server);
  obs::Counter* updates_applied =
      obs::Registry::Global().GetCounter("gtpq_updates_applied_total");
  const uint64_t applied_before = updates_applied->Value();

  std::atomic<int> failures{0};
  std::thread updater([&] {
    net::NetClient client;
    if (!client.Connect("127.0.0.1", server.port()).ok()) {
      ++failures;
      return;
    }
    for (size_t i = 0; i < stream.size(); ++i) {
      auto applied =
          client.ApplyUpdates(std::span<const UpdateBatch>(&stream[i], 1));
      if (!applied.ok() || applied->epoch != i + 1) {
        ++failures;
        return;
      }
      // Let readers interleave between epochs.
      if (!client.QueryBatch({texts[0]}).ok()) ++failures;
    }
  });
  std::vector<std::thread> readers;
  for (int reader = 0; reader < 2; ++reader) {
    readers.emplace_back([&] {
      net::NetClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        ++failures;
        return;
      }
      for (int round = 0; round < 10; ++round) {
        auto batch = client.QueryBatch(texts);
        if (!batch.ok()) {
          ++failures;
          return;
        }
        if (batch->epoch > stream.size()) ++failures;
        const bool one_epoch =
            std::find(expected.begin(), expected.end(), batch->results) !=
            expected.end();
        if (!one_epoch) {
          ++failures;
          ADD_FAILURE() << "wire batch matches no single epoch (round "
                        << round << ")";
        }
        // The stamped epoch must agree with the answers it produced.
        if (one_epoch &&
            batch->results !=
                expected[static_cast<size_t>(batch->epoch)]) {
          ++failures;
          ADD_FAILURE() << "epoch stamp disagrees with the answers";
        }
      }
    });
  }
  updater.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);

  // Quiescent: the final epoch serves everywhere, wire and in-process.
  net::NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_EQ(client.server_info().epoch, stream.size());
  auto final_batch = client.QueryBatch(texts);
  ASSERT_TRUE(final_batch.ok());
  EXPECT_EQ(final_batch->results, expected.back());
  // An empty BATCH is a pure epoch probe and must report the live
  // epoch, not a stale default.
  auto probe = client.QueryBatch({});
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->results.size(), 0u);
  EXPECT_EQ(probe->epoch, stream.size());
  ASSERT_TRUE(client.Hello().ok());
  EXPECT_EQ(client.server_info().epoch, stream.size());
  EXPECT_EQ(updates_applied->Value() - applied_before, stream.size());

  // Invalid updates are typed errors and change nothing.
  UpdateBatch bogus;
  bogus.remove_nodes.push_back(static_cast<NodeId>(g.NumNodes() + 500));
  auto rejected =
      client.ApplyUpdates(std::span<const UpdateBatch>(&bogus, 1));
  EXPECT_FALSE(rejected.ok());
  ASSERT_TRUE(client.Hello().ok());
  EXPECT_EQ(client.server_info().epoch, stream.size());
}

#if defined(__linux__)

// ------------------------------------- interrupted & partial syscalls

std::atomic<int> g_sigusr1_count{0};
void CountSigusr1(int) {
  g_sigusr1_count.fetch_add(1, std::memory_order_relaxed);
}

// A client thread peppered with non-SA_RESTART signals must still get
// every answer: any read()/write()/connect() inside NetClient can
// return EINTR at any point, and a lost retry shows up here as a
// failed Connect, a short frame, or a CRC mismatch. Regression test
// for the client-side EINTR handling (connect completes via
// poll+SO_ERROR; IO loops resume mid-frame).
TEST(NetServerTest, SignalPepperedClientGetsEveryAnswer) {
  DataGraph g = RandomDag({.num_nodes = 60,
                           .avg_degree = 2.2,
                           .num_labels = 6,
                           .locality = 1.0,
                           .seed = 13});
  const std::vector<Gtpq> queries = MakeQueries(g, 4, 500);
  ASSERT_GE(queries.size(), 2u) << "generator starved";
  const std::vector<std::string> texts = ToTexts(g, queries);

  net::NetServerOptions options;
  options.runtime.num_threads = 2;
  net::NetServer server(g, options);
  START_OR_SKIP(server);
  const std::vector<QueryResult> expected =
      server.runtime().EvaluateBatch(queries);

  // SIGUSR1 without SA_RESTART: every blocking syscall in the peppered
  // thread can fail with EINTR instead of resuming transparently.
  g_sigusr1_count.store(0, std::memory_order_relaxed);
  struct sigaction action, previous;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = &CountSigusr1;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ASSERT_EQ(sigaction(SIGUSR1, &action, &previous), 0);

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread victim([&]() {
    // Fresh connection per round so ::connect() gets signal exposure
    // too, then a pipelined burst over it.
    for (int round = 0; round < 12; ++round) {
      net::NetClient client;
      const Status st = client.Connect("127.0.0.1", server.port());
      if (!st.ok()) {
        ++failures;
        ADD_FAILURE() << "connect: " << st.ToString();
        continue;
      }
      for (int rep = 0; rep < 4; ++rep) {
        auto batch = client.QueryBatch(texts);
        if (!batch.ok()) {
          ++failures;
          ADD_FAILURE() << "batch: " << batch.status().ToString();
          break;
        }
        if (batch->results != expected) {
          ++failures;
          ADD_FAILURE() << "round " << round << " answers diverged";
        }
      }
    }
    done.store(true, std::memory_order_release);
  });

  // Pepper until the victim finishes. pthread_kill on a joinable
  // thread is valid until join(), even after its body returns.
  while (!done.load(std::memory_order_acquire)) {
    pthread_kill(victim.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  victim.join();
  ASSERT_EQ(sigaction(SIGUSR1, &previous, nullptr), 0);

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(g_sigusr1_count.load(std::memory_order_relaxed), 50)
      << "pepper never landed; the test proved nothing";
  server.Stop();
}

// A slow reader with a tiny receive window forces the server's writes
// short: send() accepts partial frames (or 0 bytes / EAGAIN) and the
// remainder must survive in the output backlog until the socket
// drains. Regression test for the flush path treating a 0-byte write
// as backpressure, not as a vanished peer.
TEST(NetServerTest, SlowReaderWithTinyWindowGetsCompleteResponses) {
  DataGraph g = RandomDag({.num_nodes = 60,
                           .avg_degree = 2.2,
                           .num_labels = 6,
                           .locality = 1.0,
                           .seed = 17});
  const std::vector<Gtpq> queries = MakeQueries(g, 4, 700);
  ASSERT_GE(queries.size(), 2u) << "generator starved";
  std::vector<std::string> texts;
  for (int rep = 0; rep < 64; ++rep) {
    const auto batch = ToTexts(g, queries);
    texts.insert(texts.end(), batch.begin(), batch.end());
  }
  std::vector<Gtpq> all_queries;
  for (int rep = 0; rep < 64; ++rep) {
    for (const Gtpq& q : queries) all_queries.push_back(q);
  }

  net::NetServerOptions options;
  options.runtime.num_threads = 2;
  net::NetServer server(g, options);
  START_OR_SKIP(server);
  const std::vector<QueryResult> expected =
      server.runtime().EvaluateBatch(all_queries);

  // Raw socket with the smallest receive buffer the kernel will give
  // us, set before connect so the advertised window starts tiny.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 1024;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof(rcvbuf)),
            0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  std::string bytes;
  net::EncodeFrame(FrameType::kHello, 1, {}, net::EncodeHello(), &bytes);
  net::EncodeFrame(FrameType::kBatch, 2, {},
                   net::EncodeBatchRequest({0, texts}), &bytes);
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }

  // Let the server evaluate and slam into the tiny window before we
  // start draining.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Drain in 512-byte sips with pauses: the server flushes a little,
  // hits a short write, re-arms, flushes again.
  FrameDecoder decoder;
  std::optional<Frame> hello_ok, batch_result;
  char buf[512];
  int sips = 0;
  while (!batch_result.has_value()) {
    auto frame = decoder.Next();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    if (frame->has_value()) {
      if ((*frame)->type == FrameType::kHelloOk) {
        hello_ok = std::move(**frame);
      } else {
        batch_result = std::move(**frame);
      }
      continue;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "server hung up mid-response";
    decoder.Append(buf, static_cast<size_t>(n));
    if (++sips % 16 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(hello_ok.has_value());
  ASSERT_EQ(batch_result->type, FrameType::kBatchResult);
  EXPECT_EQ(batch_result->request_id, 2u);
  net::WireBatchResult decoded;
  ASSERT_TRUE(
      net::DecodeBatchResult(batch_result->payload, &decoded).ok());
  EXPECT_EQ(decoded.results, expected);
  ::close(fd);
  server.Stop();
}

#endif  // defined(__linux__)

}  // namespace
}  // namespace gtpq

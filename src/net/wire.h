#ifndef GTPQ_NET_WIRE_H_
#define GTPQ_NET_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/eval_types.h"
#include "obs/trace.h"
#include "runtime/query_server.h"

namespace gtpq {
namespace net {

/// "gtpq-wire v4": the length-prefixed binary protocol the network
/// front-end (net/server.h) speaks. Every frame is
///
///   u32 length       bytes that follow (header + payload + trailer),
///                    bounds-checked against WireLimits::max_frame_bytes
///                    before any allocation
///   u8  type         FrameType
///   u64 request_id   caller-chosen correlation id, echoed verbatim in
///                    the response; responses may arrive out of order
///   u64 trace_id     distributed-trace context (obs/trace.h) of the
///   u64 parent_span  request; 0 when untraced, always 0 on responses
///   ...              payload (length - kFrameOverhead bytes), per-type
///                    layout below
///   u32 crc32        storage::Crc32 over [header, payload]
///
/// all little-endian via the storage Writer/Reader primitives, so the
/// codec shares its byte order, bounds checking, and checksum flavour
/// with the .gtpqidx on-disk format. Every payload has exactly one
/// layout: a decoder rejects a payload that is short or has bytes left
/// over.
///
/// Request payloads:
///   HELLO          u32 magic "GTPW", u32 version
///   QUERY          u64 result_limit, string query text
///                  (query/query_parser.h line format)
///   BATCH          u64 result_limit, u32 count, count query strings
///   APPLY_UPDATES  string "gtpq-updates v1" text (dynamic/update_io.h)
///   STATS          empty
///   PROBE          u8 direction (0 = does pivots[r] reach ids[c], 1 =
///                  does ids[c] reach pivots[r]), the pivots as a NodeId
///                  POD vector, then the ids as a NodeId POD vector —
///                  the set-at-a-time reachability primitive the cluster
///                  router sends to each shard server once per set call
///                  (src/cluster/shard_router.h), or once per tile when
///                  the answer would not fit one frame (MaxProbeCells)
///   OBSERVE        u8 kind (0 = Prometheus metrics, 1 = Chrome trace
///                  JSON, 2 = slow-query log, 3 = binary metrics
///                  snapshot, 4 = health report, 5 = binary span dump),
///                  u64 trace-id filter (0 = every trace)
///
/// Response payloads (type = request type | 0x80, or ERROR):
///   HELLO_OK       u32 magic, u32 version, u64 epoch, u64 graph nodes,
///                  string engine name
///   RESULT         u64 epoch, QueryResult (EncodeQueryResult)
///   BATCH_RESULT   u64 epoch, u32 count, count QueryResults
///   APPLY_OK       u64 epoch, u64 batches applied
///   STATS_RESULT   ServingStats (EncodeServingStats): engine string,
///                  nine u64 counters, f64 busy ms, then one f64 per
///                  GTEA stage in Stage order (core/eval_types.h)
///   PROBE_RESULT   u64 epoch, u32 rows, u32 cols, then the packed
///                  rows x cols answer matrix, row-major (bit r * cols + c
///                  answers (pivots[r], ids[c])), as a u8 POD vector of
///                  exactly (rows * cols + 7) / 8 bytes
///   OBSERVE_RESULT string body (text exposition / JSON / log dump)
///   ERROR          u8 StatusCode, string message
inline constexpr uint32_t kWireMagic = 0x57505447;  // "GTPW" LE
/// v3 moved the trace context into the frame header and gave every
/// payload one fixed layout; v4 dropped the u32 lane budget from
/// QUERY and BATCH. HELLO rejects any other version, so a peer never
/// misreads a frame.
inline constexpr uint32_t kWireVersion = 4;

/// Frame bytes after the length prefix that are not payload: type +
/// request id + trace context + crc trailer.
inline constexpr size_t kFrameOverhead = 1 + 8 + 16 + 4;

enum class FrameType : uint8_t {
  kHello = 0x01,
  kQuery = 0x02,
  kBatch = 0x03,
  kApplyUpdates = 0x04,
  kStats = 0x05,
  kProbe = 0x06,
  kObserve = 0x07,

  kError = 0x7f,
  kHelloOk = 0x81,
  kResult = 0x82,
  kBatchResult = 0x83,
  kApplyOk = 0x84,
  kStatsResult = 0x85,
  kProbeResult = 0x86,
  kObserveResult = 0x87,
};

/// True for the seven request (client -> server) frame types.
bool IsRequestType(uint8_t type);
/// True for any frame type gtpq-wire defines.
bool IsKnownType(uint8_t type);
const char* FrameTypeName(FrameType type);

/// Decoder bounds. Oversized declared lengths are rejected before any
/// buffer grows, so a hostile or corrupt peer cannot balloon memory.
struct WireLimits {
  size_t max_frame_bytes = 16u << 20;
  /// Queries per BATCH frame (admission control, not format).
  uint32_t max_batch_queries = 4096;
};

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kError;
  uint64_t request_id = 0;
  /// The sender's trace context; zero on untraced requests and on
  /// every response.
  obs::TraceContext trace;
  std::string payload;
};

/// Appends one encoded frame to `*out` (length prefix, header, payload,
/// CRC trailer).
void EncodeFrame(FrameType type, uint64_t request_id,
                 obs::TraceContext trace, std::string_view payload,
                 std::string* out);

/// Incremental frame decoder over one connection's byte stream. Append
/// received bytes, then call Next() until it yields nullopt (need more
/// bytes). A decode error (oversized length, unknown type, CRC
/// mismatch) is FATAL for the stream: framing can no longer be
/// trusted, so the caller must close the connection.
class FrameDecoder {
 public:
  explicit FrameDecoder(WireLimits limits = {}) : limits_(limits) {}

  void Append(const char* data, size_t len) { buf_.append(data, len); }

  /// One complete frame, nullopt when more bytes are needed, or a
  /// ParseError that invalidates the stream.
  Result<std::optional<Frame>> Next();

  /// Bytes buffered but not yet consumed by Next().
  size_t buffered() const { return buf_.size() - consumed_; }

 private:
  WireLimits limits_;
  std::string buf_;
  size_t consumed_ = 0;
};

// --- Payload codecs ----------------------------------------------------

std::string EncodeHello();
/// Validates magic + version of a HELLO (or HELLO_OK prefix).
Status DecodeHello(std::string_view payload);

struct HelloOk {
  uint64_t epoch = 0;
  uint64_t graph_nodes = 0;
  std::string engine;
};
std::string EncodeHelloOk(const HelloOk& hello);
Status DecodeHelloOk(std::string_view payload, HelloOk* out);

struct QueryRequest {
  uint64_t result_limit = 0;
  std::string text;
};
std::string EncodeQueryRequest(const QueryRequest& request);
Status DecodeQueryRequest(std::string_view payload, QueryRequest* out);

struct BatchRequest {
  uint64_t result_limit = 0;
  std::vector<std::string> texts;
};
std::string EncodeBatchRequest(const BatchRequest& request);
Status DecodeBatchRequest(std::string_view payload, const WireLimits& limits,
                          BatchRequest* out);

struct WireResult {
  uint64_t epoch = 0;
  QueryResult result;
};
std::string EncodeResult(const WireResult& result);
Status DecodeResult(std::string_view payload, WireResult* out);

struct WireBatchResult {
  uint64_t epoch = 0;
  std::vector<QueryResult> results;
};
std::string EncodeBatchResult(const WireBatchResult& result);
Status DecodeBatchResult(std::string_view payload, WireBatchResult* out);

struct ApplyOk {
  uint64_t epoch = 0;
  uint64_t batches_applied = 0;
};
std::string EncodeApplyOk(const ApplyOk& apply);
Status DecodeApplyOk(std::string_view payload, ApplyOk* out);

std::string EncodeServingStats(const ServingStats& stats);
Status DecodeServingStats(std::string_view payload, ServingStats* out);

/// One set-at-a-time reachability probe: `reverse == false` asks "does
/// pivots[r] reach ids[c]?", `reverse == true` asks "does ids[c] reach
/// pivots[r]?", for every pair. Node ids are LOCAL to the server's
/// graph; the cluster router translates global ids before fanning out.
struct ProbeRequest {
  bool reverse = false;
  std::vector<NodeId> pivots;
  std::vector<NodeId> ids;
};
std::string EncodeProbeRequest(const ProbeRequest& request);
Status DecodeProbeRequest(std::string_view payload, ProbeRequest* out);

/// The pivots x ids answers as a packed row-major bitmask (bit
/// r * cols + c of bits[i / 8]), stamped with the snapshot epoch that
/// answered them.
struct ProbeResult {
  uint64_t epoch = 0;
  uint32_t rows = 0;
  uint32_t cols = 0;
  std::vector<uint8_t> bits;

  bool Get(size_t row, size_t col) const {
    const size_t i = row * cols + col;
    return (bits[i / 8] >> (i % 8)) & 1;
  }
};
std::string EncodeProbeResult(const ProbeResult& result);
Status DecodeProbeResult(std::string_view payload, ProbeResult* out);

/// What one PROBE round trip can carry under `limits`: the largest
/// rows x cols a PROBE_RESULT holds, and the largest pivots + ids a
/// PROBE holds. Larger questions must be split across frames;
/// a server rejects a PROBE whose answer would not fit.
uint64_t MaxProbeCells(const WireLimits& limits);
size_t MaxProbeNodes(const WireLimits& limits);

/// What an OBSERVE frame asks the server to export. The rendered kinds
/// (kMetrics/kTrace) federate across the cluster when the serving
/// oracle is an obs::ClusterObservable (the router); the binary kinds
/// (kMetricsSnapshot/kSpans) are the member-side primitives that
/// federation pulls; kHealth is always answered inline on the IO
/// thread so it measures event-loop responsiveness itself.
enum class ObserveKind : uint8_t {
  kMetrics = 0,          // Prometheus text exposition
  kTrace = 1,            // Chrome trace-event JSON
  kSlowlog = 2,          // slow-query log dump
  kMetricsSnapshot = 3,  // binary registry snapshot (obs/federation.h)
  kHealth = 4,           // binary HealthReport
  kSpans = 5,            // binary span dump (obs/federation.h)
};
/// A non-zero `trace_id` filters kTrace/kSpans exports to one trace.
std::string EncodeObserveRequest(ObserveKind kind, uint64_t trace_id = 0);
Status DecodeObserveRequest(std::string_view payload, ObserveKind* kind,
                            uint64_t* trace_id);

/// OBSERVE_RESULT carries the rendered or binary export verbatim.
std::string EncodeObserveResult(std::string_view body);
Status DecodeObserveResult(std::string_view payload, std::string* out);

/// Lightweight liveness report (OBSERVE kind = kHealth). Answered
/// inline on the server's IO thread — a response proves the event loop
/// is turning, not just that the process exists. Consumed by the
/// router's health prober (the replica-failover seam).
struct HealthReport {
  uint64_t epoch = 0;
  double uptime_seconds = 0;
  /// Requests parked for the dispatch thread at answer time.
  uint64_t queue_depth = 0;
  /// 1 when the runtime's engine spec loaded and the pool is serving.
  uint8_t serving = 0;
  std::string engine;
};
std::string EncodeHealthReport(const HealthReport& report);
Status DecodeHealthReport(std::string_view payload, HealthReport* out);

/// ERROR payload round trip; encoding an OK status is a programming
/// error. DecodeError returns the CARRIED status on success (never OK)
/// and a ParseError when the payload itself is malformed.
std::string EncodeError(const Status& status);
Status DecodeError(std::string_view payload);

}  // namespace net
}  // namespace gtpq

#endif  // GTPQ_NET_WIRE_H_

#ifndef GTPQ_NET_CLIENT_H_
#define GTPQ_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "dynamic/graph_delta.h"
#include "net/wire.h"
#include "obs/federation.h"

namespace gtpq {
namespace net {

/// Blocking gtpq-wire client over one TCP connection, shared by the
/// gteactl query/apply subcommands, bench_net_throughput, and the
/// socket-level tests.
///
/// Two usage styles:
///  * synchronous — Query/QueryBatch/ApplyUpdates/Stats send one
///    request and wait for its response (correlated by request id;
///    responses to other outstanding requests are parked, so the sync
///    calls compose with pipelining);
///  * pipelined — SendBatch/SendProbe/SendObserve enqueue without
///    waiting and return the request id; Receive() yields the next
///    response frame (parked first, then off the socket), which the
///    caller correlates via Frame::request_id.
///
/// Every request's frame header carries the calling thread's
/// obs::CurrentTrace(): install an obs::ScopedTraceContext around a
/// call to trace it (the server parents its spans under
/// parent_span); with none installed the request is untraced.
///
/// One NetClient is thread-confined. Open several clients for
/// concurrent load (see bench_net_throughput).
class NetClient {
 public:
  NetClient() = default;
  ~NetClient();
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Connects to a numeric IPv4 host ("127.0.0.1") and performs the
  /// HELLO handshake; server_info() is valid afterwards.
  Status Connect(const std::string& host, uint16_t port,
                 WireLimits limits = {});
  void Close();
  bool connected() const { return fd_ >= 0; }
  /// HELLO_OK fields captured at Connect (engine, epoch, graph size).
  const HelloOk& server_info() const { return server_info_; }

  // --- Synchronous calls ----------------------------------------------

  /// `text` is the query/query_parser.h line format; result_limit 0
  /// defers to the server's configured cap. Sent as a BATCH of one;
  /// an answer that does not carry exactly one result is a ParseError.
  Result<WireResult> Query(const std::string& text,
                           uint64_t result_limit = 0);
  Result<WireBatchResult> QueryBatch(const std::vector<std::string>& texts,
                                     uint64_t result_limit = 0);
  /// Applies "gtpq-updates v1" text (dynamic/update_io.h) atomically
  /// batch by batch on the server's live snapshot chain.
  Result<ApplyOk> ApplyUpdates(const std::string& updates_text);
  Result<ApplyOk> ApplyUpdates(std::span<const UpdateBatch> batches);
  Result<ServingStats> Stats();
  /// Set-at-a-time reachability probe (see ProbeRequest); node ids are
  /// local to the server's graph.
  Result<ProbeResult> Probe(const ProbeRequest& request);
  /// One observability export (OBSERVE frame): the slow-query log, or
  /// a binary metrics snapshot, span groups or health report. A
  /// non-zero trace_id filters kSpans to one trace (0 = whole ring).
  Result<std::string> Observe(ObserveKind kind, uint64_t trace_id = 0);
  /// Observe(kHealth), decoded. Answered inline on the server's IO
  /// thread, so a response bounds event-loop latency too.
  Result<HealthReport> Health();
  /// Observe(kMetricsSnapshot), decoded; against a router, the
  /// federated snapshot of the whole cluster.
  Result<obs::MetricsSnapshot> Metrics();
  /// Observe(kSpans, trace_id), decoded: one group per process (a
  /// router returns its own and every member's).
  Result<std::vector<obs::ProcessSpans>> Spans(uint64_t trace_id = 0);

  // --- Pipelined calls ------------------------------------------------

  /// Sends without waiting; returns the request id to correlate the
  /// eventual response.
  Result<uint64_t> SendBatch(const std::vector<std::string>& texts,
                             uint64_t result_limit = 0);
  Result<uint64_t> SendProbe(const ProbeRequest& request);
  /// Pipelined OBSERVE — the router fans one export request out to
  /// every shard, then collects by id.
  Result<uint64_t> SendObserve(ObserveKind kind, uint64_t trace_id = 0);
  /// Next response frame: parked responses first, then a blocking read.
  Result<Frame> Receive();
  /// Blocking wait for the response to one previously-sent request;
  /// responses to other outstanding requests are parked for Receive().
  /// An ERROR frame becomes its carried status, an unexpected response
  /// type a protocol error — same unwrapping as the synchronous calls,
  /// exposed so scatter-gather callers can pipeline several probes and
  /// then collect them by id.
  Result<std::string> WaitForResponse(uint64_t request_id,
                                      FrameType expect);

 private:
  /// Sends one request frame under a fresh request id, stamped with
  /// obs::CurrentTrace(); returns the id.
  Result<uint64_t> Send(FrameType type, std::string_view payload);
  /// Blocking read of the response carrying `request_id`; responses to
  /// other requests are parked for later Receive() calls.
  Result<Frame> WaitFor(uint64_t request_id);
  /// Send + WaitForResponse.
  Result<std::string> RoundTrip(FrameType type, std::string_view payload,
                                FrameType expect);
  Result<Frame> ReadFrame();

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  WireLimits limits_;
  FrameDecoder decoder_;
  std::deque<Frame> parked_;
  HelloOk server_info_;
};

/// Parses "host:port" (or a bare "port", host defaulting to
/// 127.0.0.1) — the shared syntax of every --connect= flag.
bool ParseHostPort(const std::string& spec, std::string* host,
                   uint16_t* port);

/// Connect() with bounded backoff while the server is still binding:
/// ECONNREFUSED (and ETIMEDOUT) retries up to `attempts` times,
/// sleeping `backoff_ms` then doubling (capped at 500 ms) between
/// tries. Any other failure — bad host, handshake error — returns
/// immediately. Shared by the benches and the cluster router so
/// process-startup races need no external sleeps.
Status ConnectWithRetry(NetClient* client, const std::string& host,
                        uint16_t port, WireLimits limits = {},
                        int attempts = 50, int backoff_ms = 10);

}  // namespace net
}  // namespace gtpq

#endif  // GTPQ_NET_CLIENT_H_

#ifndef GTPQ_NET_SERVER_H_
#define GTPQ_NET_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "graph/data_graph.h"
#include "net/wire.h"
#include "runtime/query_server.h"

namespace gtpq {
namespace net {

struct NetServerOptions {
  /// Address/port to listen on; port 0 binds an ephemeral port, which
  /// port() reports after Start().
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;

  /// The serving runtime under the front-end (pool size, engine spec,
  /// eval options).
  QueryServerOptions runtime;

  /// Coalescing: queries decoded from ALL connections are grouped into
  /// one QueryServer::EvaluateBatch while more keep arriving, bounded
  /// by a query count and a wait window measured from the first pending
  /// query. Larger windows trade latency for batch efficiency (one
  /// pinned snapshot, full pool fan-out per dispatch). Start() rejects
  /// a window that is not finite or lies outside [0, 1e6] us.
  size_t coalesce_max_queries = 64;
  double coalesce_window_us = 200.0;

  /// Admission control. A request past either bound is answered with a
  /// typed ERROR frame (FailedPrecondition) instead of growing queues
  /// without limit; the connection stays usable.
  size_t max_inflight_per_conn = 64;
  size_t max_pending_requests = 1024;

  /// Frame-size and batch-size bounds enforced by the decoder.
  WireLimits limits;
};

/// The network serving front-end: a non-blocking epoll event loop
/// accepting gtpq-wire connections (net/wire.h), feeding a single
/// dispatcher that coalesces concurrently-arriving queries into
/// snapshot-consistent QueryServer batches, with live APPLY_UPDATES
/// folding into the epoch-snapshot path so in-flight responses never
/// mix graph versions.
///
/// Threading model:
///  * one IO thread owns every socket — accept, frame decode, response
///    writes, admission control — so connection state needs no locks;
///  * one dispatch thread pops decoded requests, parses query text
///    (each request gets a private AttrNames clone of the graph's
///    namespace, so parsing never mutates shared state), coalesces
///    BATCH requests (time/size-bounded), and runs them through
///    the QueryServer pool, which evaluates them across its workers;
///  * responses flow back to the IO thread over a wakeup pipe and are
///    correlated by the request id echoed in every frame — responses
///    may be reordered relative to requests (a PROBE overtakes a slow
///    BATCH), which the protocol permits.
///
/// Malformed frames (bad length, unknown type, CRC mismatch) invalidate
/// the stream: the server sends a final ERROR frame and closes that
/// connection. Admission rejections are per-request typed ERRORs and
/// keep the connection alive, as do responses over the frame limit
/// (OutOfRange), whichever thread answers them.
///
/// Tracing: a request whose frame header carries a trace context gets
/// a "dispatch" span (queries) or "serve probe" span (PROBE) parented
/// under the header's parent_span.
///
/// Only compiled on Linux (epoll); elsewhere Start() returns
/// Unimplemented.
class NetServer {
 public:
  /// `g` must outlive the server (it backs the runtime's epoch-0
  /// snapshot). Aborts (GTPQ_CHECK) on unknown engine specs, like
  /// QueryServer.
  explicit NetServer(const DataGraph& g, NetServerOptions options = {});
  ~NetServer();  // Stop()s if still running.

  /// Binds, listens, and spawns the IO + dispatch threads.
  Status Start();
  /// Drains pending requests, flushes best-effort, closes every
  /// connection, joins both threads. Idempotent.
  void Stop();
  bool running() const;

  /// The bound port (resolves ephemeral binds); 0 before Start().
  uint16_t port() const;

  /// The serving runtime behind the front-end (shared with in-process
  /// callers; the differential tests compare wire answers against it).
  QueryServer& runtime();
  const QueryServer& runtime() const;

  /// Per-instance front-end counters (atomic snapshots; safe from any
  /// thread). Everything else a server counts lives in the process
  /// metrics registry (obs/metrics.h), which several servers in one
  /// process share.
  struct Counters {
    uint64_t queries_served = 0;
    /// PROBE frames answered inline on the IO thread.
    uint64_t probes_served = 0;
    /// EvaluateBatch dispatches (each = one coalesced group share).
    uint64_t batches_dispatched = 0;
  };
  Counters counters() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace net
}  // namespace gtpq

#endif  // GTPQ_NET_SERVER_H_

#include "net/server.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/timer.h"
#include "dynamic/update_io.h"
#include "obs/federation.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "obs/trace.h"
#include "query/query_parser.h"
#include "storage/index_io.h"

#if defined(__linux__)
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace gtpq {
namespace net {

#if defined(__linux__)

namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

/// One decoded request parked for the dispatcher.
struct PendingRequest {
  uint64_t conn_id = 0;
  uint64_t request_id = 0;
  FrameType type = FrameType::kQuery;
  obs::TraceContext trace;
  std::string payload;
};

/// Registry handles for the network hot paths, resolved once.
struct NetMetrics {
  obs::Counter* connections_total;
  obs::Counter* bytes_received_total;
  obs::Counter* bytes_sent_total;
  obs::Counter* admission_rejected_total;
  obs::Gauge* dispatch_queue_depth;
  obs::Gauge* uptime_seconds;
  obs::Histogram* coalesced_batch_size;

  static const NetMetrics& Get() {
    static const NetMetrics m = [] {
      obs::Registry& reg = obs::Registry::Global();
      // gtpq_build_info is the standard info-series idiom: value
      // constant 1, the payload lives in the labels (wire protocol
      // revision, .gtpqidx format revision).
      reg.GetGauge(obs::LabeledName(
                       "gtpq_build_info",
                       {{"version",
                         "gtpq-wire v" + std::to_string(kWireVersion)},
                        {"format", "gtpqidx v" + std::to_string(
                                       storage::kIndexFormatVersion)}}))
          ->Set(1);
      return NetMetrics{
          reg.GetCounter("gtpq_connections_total"),
          reg.GetCounter("gtpq_net_bytes_received_total"),
          reg.GetCounter("gtpq_net_bytes_sent_total"),
          reg.GetCounter("gtpq_admission_rejected_total"),
          reg.GetGauge("gtpq_dispatch_queue_depth"),
          reg.GetGauge("gtpq_uptime_seconds"),
          reg.GetHistogram("gtpq_coalesced_batch_size")};
    }();
    return m;
  }
};

/// Appends the frame answering `request_id` to `*out`. Never emits a
/// frame the peer's decoder is entitled to treat as a fatal framing
/// error: an over-limit response degrades to a typed OutOfRange ERROR
/// the client can recover from, and the connection stays usable.
void EncodeResponse(const WireLimits& limits, FrameType type,
                    uint64_t request_id, std::string_view payload,
                    std::string* out) {
  if (payload.size() + kFrameOverhead > limits.max_frame_bytes &&
      type != FrameType::kError) {
    EncodeFrame(FrameType::kError, request_id, {},
                EncodeError(Status::OutOfRange(
                    "response of " + std::to_string(payload.size()) +
                    " bytes exceeds the " +
                    std::to_string(limits.max_frame_bytes) +
                    "-byte frame limit; lower the result limit, split "
                    "the request or raise the limit")),
                out);
    return;
  }
  EncodeFrame(type, request_id, {}, payload, out);
}

/// One encoded response frame headed back to a connection. Each
/// dispatched request produces exactly one response, so delivery also
/// releases one in-flight slot.
struct Response {
  uint64_t conn_id = 0;
  std::string bytes;
};

struct Connection {
  int fd = -1;
  uint64_t id = 0;
  FrameDecoder decoder;
  std::string out;
  size_t out_pos = 0;
  /// Requests handed to the dispatcher but not yet answered.
  size_t inflight = 0;
  bool hello_done = false;
  /// Fatal protocol error: flush what is queued, then close.
  bool close_after_flush = false;
  bool want_writable = false;

  explicit Connection(WireLimits limits) : decoder(limits) {}
};

}  // namespace

struct NetServer::Impl {
  const DataGraph* graph = nullptr;
  NetServerOptions options;
  std::unique_ptr<QueryServer> runtime;

  int listen_fd = -1;
  int epoll_fd = -1;
  int wake_read_fd = -1;
  int wake_write_fd = -1;
  std::atomic<uint16_t> bound_port{0};
  std::atomic<bool> started{false};
  std::atomic<bool> stop_dispatch{false};
  std::atomic<bool> stop_io{false};

  std::thread io_thread;
  std::thread dispatch_thread;

  // IO-thread-only connection table (epoll events carry the id).
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;
  uint64_t next_conn_id = 2;  // 0 = listen socket, 1 = wakeup pipe

  // Request queue: IO thread -> dispatcher.
  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<PendingRequest> queue;

  // Response queue: dispatcher -> IO thread (drained on wakeup).
  std::mutex response_mu;
  std::vector<Response> responses;

  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> queries_served{0};
  std::atomic<uint64_t> probes_served{0};
  std::atomic<uint64_t> batches_dispatched{0};
  std::atomic<uint64_t> rejected_overload{0};
  std::atomic<uint64_t> protocol_errors{0};

  ~Impl() { CloseFds(); }

  void CloseFds() {
    for (int* fd : {&listen_fd, &epoll_fd, &wake_read_fd, &wake_write_fd}) {
      if (*fd >= 0) {
        ::close(*fd);
        *fd = -1;
      }
    }
  }

  Status Start();
  void Stop();

  /// Effective slow-consumer bound: never below two max-size frames,
  /// so a single legitimate large response cannot trip it.
  size_t OutputBacklogLimit() const {
    return std::max(options.max_output_backlog_bytes,
                    2 * (options.limits.max_frame_bytes + 4));
  }

  // --- IO thread ------------------------------------------------------
  void IoLoop();
  void Wake() {
    const char byte = 1;
    // The pipe is only a doorbell; a full pipe (EAGAIN) already
    // guarantees a pending wakeup, so that failure is fine to drop —
    // but an EINTR'd write on an EMPTY pipe would lose the only
    // doorbell, so retry it.
    ssize_t n;
    do {
      n = ::write(wake_write_fd, &byte, 1);
    } while (n < 0 && errno == EINTR);
  }
  void AcceptAll();
  void ReadConnection(Connection& conn);
  void HandleFrame(Connection& conn, Frame frame);
  void SendOn(Connection& conn, FrameType type, uint64_t request_id,
              std::string_view payload);
  void SendError(Connection& conn, uint64_t request_id,
                 const Status& status) {
    SendOn(conn, FrameType::kError, request_id, EncodeError(status));
  }
  void FlushConnection(Connection& conn);
  void UpdateInterest(Connection& conn);
  void CloseConnection(uint64_t id);
  void DeliverResponses();

  // --- Dispatch thread ------------------------------------------------
  void DispatchLoop();
  void ProcessQueryGroup(std::vector<PendingRequest> group);
  void ProcessApply(const PendingRequest& request);
  void Respond(uint64_t conn_id, FrameType type, uint64_t request_id,
               std::string_view payload);
  void RespondError(const PendingRequest& request, const Status& status) {
    Respond(request.conn_id, FrameType::kError, request.request_id,
            EncodeError(status));
  }
};

Status NetServer::Impl::Start() {
  listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) return Errno("socket");
  const int one = 1;
  setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address: " +
                                   options.bind_address);
  }
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return Errno("bind " + options.bind_address + ":" +
                 std::to_string(options.port));
  }
  if (::listen(listen_fd, 128) < 0) return Errno("listen");
  GTPQ_RETURN_NOT_OK(SetNonBlocking(listen_fd));

  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                  &addr_len) < 0) {
    return Errno("getsockname");
  }
  bound_port.store(ntohs(addr.sin_port));

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) < 0) return Errno("pipe2");
  wake_read_fd = pipe_fds[0];
  wake_write_fd = pipe_fds[1];

  epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) return Errno("epoll_create1");
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = 0;
  if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev) < 0) {
    return Errno("epoll_ctl(listen)");
  }
  ev.data.u64 = 1;
  if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_read_fd, &ev) < 0) {
    return Errno("epoll_ctl(wakeup)");
  }

  started.store(true);
  io_thread = std::thread([this] { IoLoop(); });
  dispatch_thread = std::thread([this] { DispatchLoop(); });
  return Status::OK();
}

void NetServer::Impl::Stop() {
  if (!started.exchange(false)) return;
  // Dispatcher first: it drains the request queue (every queued request
  // still gets its response), then the IO thread delivers, flushes
  // best-effort, and closes.
  stop_dispatch.store(true);
  queue_cv.notify_all();
  dispatch_thread.join();
  stop_io.store(true);
  Wake();
  io_thread.join();
  CloseFds();
}

// ---------------------------------------------------------------- IO

void NetServer::Impl::IoLoop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (true) {
    const int n = epoll_wait(epoll_fd, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      GTPQ_LOG(Error) << "epoll_wait: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == 0) {
        AcceptAll();
        continue;
      }
      if (tag == 1) {
        char buf[256];
        ssize_t drained;
        do {
          drained = ::read(wake_read_fd, buf, sizeof(buf));
        } while (drained > 0 || (drained < 0 && errno == EINTR));
        DeliverResponses();
        continue;
      }
      auto it = conns.find(tag);
      if (it == conns.end()) continue;  // closed earlier this round
      Connection& conn = *it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(tag);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) FlushConnection(conn);
      if (conns.count(tag) != 0 && (events[i].events & EPOLLIN) != 0) {
        ReadConnection(conn);
      }
    }
    if (stop_io.load()) {
      // Final round: hand out whatever the dispatcher produced and try
      // one best-effort flush per connection before closing. Plain
      // writes, not FlushConnection — that may erase from `conns`
      // mid-iteration.
      DeliverResponses();
      for (auto& [id, conn] : conns) {
        // The sockets are nonblocking: a signal or a momentarily full
        // send buffer must not drop the tail responses, so retry EINTR
        // and wait out EAGAIN with a bounded poll instead of bailing on
        // the first short write.
        int eagain_budget = 20;  // x 50ms: at most ~1s per connection
        while (conn->out_pos < conn->out.size()) {
          const ssize_t n =
              ::write(conn->fd, conn->out.data() + conn->out_pos,
                      conn->out.size() - conn->out_pos);
          if (n > 0) {
            conn->out_pos += static_cast<size_t>(n);
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
              eagain_budget-- > 0) {
            pollfd pfd{conn->fd, POLLOUT, 0};
            ::poll(&pfd, 1, /*timeout_ms=*/50);
            continue;
          }
          break;  // peer vanished or refuses to drain; drop the rest
        }
        ::close(conn->fd);
      }
      conns.clear();
      break;
    }
  }
}

void NetServer::Impl::AcceptAll() {
  while (true) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      GTPQ_LOG(Warning) << "accept: " << std::strerror(errno);
      return;
    }
    if (conns.size() >= options.max_connections) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>(options.limits);
    conn->fd = fd;
    conn->id = next_conn_id++;
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      GTPQ_LOG(Warning) << "epoll_ctl(conn): " << std::strerror(errno);
      ::close(fd);
      continue;
    }
    connections_accepted.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::Get().connections_total->Add();
    conns.emplace(conn->id, std::move(conn));
  }
}

void NetServer::Impl::ReadConnection(Connection& conn) {
  // Sends below can close (and free) the connection on write errors, so
  // every re-entry into `conn` after one is guarded by an id lookup.
  const uint64_t id = conn.id;
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      NetMetrics::Get().bytes_received_total->Add(static_cast<uint64_t>(n));
      conn.decoder.Append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(id);  // EOF or hard error
    return;
  }
  while (conns.count(id) != 0 && !conn.close_after_flush) {
    auto frame = conn.decoder.Next();
    if (!frame.ok()) {
      // Framing is untrustworthy from here on: answer with a final
      // typed ERROR and schedule the close.
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      conn.close_after_flush = true;
      SendError(conn, 0, frame.status());
      break;
    }
    if (!frame->has_value()) break;
    HandleFrame(conn, std::move(**frame));
  }
  if (conns.count(id) != 0 && conn.close_after_flush &&
      conn.out_pos >= conn.out.size()) {
    CloseConnection(id);
  }
}

void NetServer::Impl::HandleFrame(Connection& conn, Frame frame) {
  if (!IsRequestType(static_cast<uint8_t>(frame.type))) {
    protocol_errors.fetch_add(1, std::memory_order_relaxed);
    conn.close_after_flush = true;
    SendError(conn, frame.request_id,
              Status::InvalidArgument(
                  std::string("clients may not send ") +
                  FrameTypeName(frame.type) + " frames"));
    return;
  }

  switch (frame.type) {
    case FrameType::kHello: {
      const Status st = DecodeHello(frame.payload);
      if (!st.ok()) {
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        conn.close_after_flush = true;
        SendError(conn, frame.request_id, st);
        return;
      }
      conn.hello_done = true;
      HelloOk hello;
      hello.epoch = runtime->epoch();
      hello.graph_nodes = runtime->snapshot()->graph().NumNodes();
      hello.engine = runtime->engine_name();
      SendOn(conn, FrameType::kHelloOk, frame.request_id,
             EncodeHelloOk(hello));
      return;
    }
    case FrameType::kStats:
      if (!conn.hello_done) break;
      SendOn(conn, FrameType::kStatsResult, frame.request_id,
             EncodeServingStats(runtime->serving_stats()));
      return;
    case FrameType::kProbe: {
      // Answered inline on the IO thread, like STATS: a probe is one
      // prepared set scan over the immutable snapshot, and the cluster
      // router's scatter-gather latency would otherwise eat a full
      // dispatch + coalescing round trip per hop.
      if (!conn.hello_done) break;
      ProbeRequest request;
      const Status st = DecodeProbeRequest(frame.payload, &request);
      if (!st.ok()) {
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        conn.close_after_flush = true;
        SendError(conn, frame.request_id, st);
        return;
      }
      ProbeResult result;
      result.rows = static_cast<uint32_t>(request.pivots.size());
      result.cols = static_cast<uint32_t>(request.ids.size());
      Status probed;
      {
        // A traced probe leaves a server-side span parented under the
        // caller's wire span id — the shard's leg of the stitched
        // cross-process timeline.
        const obs::ScopedTraceContext trace(frame.trace);
        const obs::ScopedSpan span("serve probe");
        probed = runtime->ProbeReachability(
            request.reverse, request.pivots, request.ids,
            MaxProbeCells(options.limits), &result.epoch, &result.bits);
      }
      if (!probed.ok()) {
        SendError(conn, frame.request_id, probed);
        return;
      }
      probes_served.fetch_add(1, std::memory_order_relaxed);
      SendOn(conn, FrameType::kProbeResult, frame.request_id,
             EncodeProbeResult(result));
      return;
    }
    case FrameType::kObserve: {
      // Also inline, like STATS: leaf exports touch no serving state
      // that needs the dispatcher, and kHealth deliberately measures
      // IO-thread responsiveness. On a router the rendered kinds fan
      // out to every member first (bounded connect retries keep a dead
      // shard from parking the event loop for long).
      if (!conn.hello_done) break;
      ObserveKind kind = ObserveKind::kMetrics;
      uint64_t filter = 0;
      const Status st = DecodeObserveRequest(frame.payload, &kind, &filter);
      if (!st.ok()) {
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        conn.close_after_flush = true;
        SendError(conn, frame.request_id, st);
        return;
      }
      // The oracle doubles as the federation seam when this process
      // fronts a cluster (ShardRouter implements ClusterObservable);
      // keep the snapshot pinned while the fan-out runs.
      std::shared_ptr<const EngineSnapshot> snap;
      const obs::ClusterObservable* fed = nullptr;
      if (kind == ObserveKind::kMetrics ||
          kind == ObserveKind::kMetricsSnapshot ||
          kind == ObserveKind::kTrace) {
        snap = runtime->snapshot();
        fed = dynamic_cast<const obs::ClusterObservable*>(snap->oracle());
      }
      if (kind != ObserveKind::kTrace && kind != ObserveKind::kSpans) {
        NetMetrics::Get().uptime_seconds->Set(
            static_cast<int64_t>(obs::NowMicros() / 1e6));
      }
      std::string body;
      switch (kind) {
        case ObserveKind::kMetrics:
        case ObserveKind::kMetricsSnapshot: {
          obs::MetricsSnapshot snapshot;
          if (fed != nullptr) {
            auto federated = fed->FederatedMetricsSnapshot();
            if (!federated.ok()) {
              SendError(conn, frame.request_id, federated.status());
              return;
            }
            snapshot = std::move(*federated);
          } else {
            snapshot = obs::Registry::Global().Snap();
          }
          body = kind == ObserveKind::kMetrics
                     ? obs::RenderPrometheusSnapshot(snapshot)
                     : obs::EncodeMetricsSnapshot(snapshot);
          break;
        }
        case ObserveKind::kTrace: {
          if (fed != nullptr) {
            auto groups = fed->CollectClusterSpans(filter);
            if (!groups.ok()) {
              SendError(conn, frame.request_id, groups.status());
              return;
            }
            body = obs::RenderChromeTrace(*groups);
          } else {
            obs::TraceRecorder& rec = obs::TraceRecorder::Global();
            body = obs::RenderChromeTrace(
                {{"gtpq", 1,
                  filter != 0 ? rec.SpansForTrace(filter) : rec.Spans()}});
          }
          break;
        }
        case ObserveKind::kSlowlog:
          body = obs::SlowQueryLog::Global().Render();
          break;
        case ObserveKind::kHealth: {
          HealthReport report;
          report.epoch = runtime->epoch();
          report.uptime_seconds = obs::NowMicros() / 1e6;
          {
            std::lock_guard<std::mutex> lock(queue_mu);
            report.queue_depth = queue.size();
          }
          report.serving = runtime->status().ok() ? 1 : 0;
          report.engine = runtime->engine_name();
          body = EncodeHealthReport(report);
          break;
        }
        case ObserveKind::kSpans: {
          obs::TraceRecorder& rec = obs::TraceRecorder::Global();
          body = obs::EncodeSpans(
              filter != 0 ? rec.SpansForTrace(filter) : rec.Spans());
          break;
        }
      }
      SendOn(conn, FrameType::kObserveResult, frame.request_id,
             EncodeObserveResult(body));
      return;
    }
    case FrameType::kQuery:
    case FrameType::kBatch:
    case FrameType::kApplyUpdates: {
      if (!conn.hello_done) break;
      if (conn.inflight >= options.max_inflight_per_conn) {
        rejected_overload.fetch_add(1, std::memory_order_relaxed);
        NetMetrics::Get().admission_rejected_total->Add();
        SendError(conn, frame.request_id,
                  Status::FailedPrecondition(
                      "too many in-flight requests on this connection "
                      "(max " +
                      std::to_string(options.max_inflight_per_conn) +
                      ")"));
        return;
      }
      {
        std::lock_guard<std::mutex> lock(queue_mu);
        if (queue.size() >= options.max_pending_requests ||
            stop_dispatch.load()) {
          rejected_overload.fetch_add(1, std::memory_order_relaxed);
          NetMetrics::Get().admission_rejected_total->Add();
          SendError(conn, frame.request_id,
                    Status::FailedPrecondition(
                        stop_dispatch.load()
                            ? "server is shutting down"
                            : "server request queue is full (max " +
                                  std::to_string(
                                      options.max_pending_requests) +
                                  ")"));
          return;
        }
        PendingRequest request;
        request.conn_id = conn.id;
        request.request_id = frame.request_id;
        request.type = frame.type;
        request.trace = frame.trace;
        request.payload = std::move(frame.payload);
        queue.push_back(std::move(request));
        NetMetrics::Get().dispatch_queue_depth->Set(
            static_cast<int64_t>(queue.size()));
      }
      ++conn.inflight;
      queue_cv.notify_one();
      return;
    }
    default:
      break;
  }
  // Fell through: request before HELLO.
  SendError(conn, frame.request_id,
            Status::FailedPrecondition("HELLO required before " +
                                       std::string(FrameTypeName(
                                           frame.type))));
}

void NetServer::Impl::SendOn(Connection& conn, FrameType type,
                             uint64_t request_id,
                             std::string_view payload) {
  EncodeResponse(options.limits, type, request_id, payload, &conn.out);
  FlushConnection(conn);
}

void NetServer::Impl::FlushConnection(Connection& conn) {
  while (conn.out_pos < conn.out.size()) {
    const ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_pos,
                              conn.out.size() - conn.out_pos);
    if (n > 0) {
      NetMetrics::Get().bytes_sent_total->Add(static_cast<uint64_t>(n));
      conn.out_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 || (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))) {
      // Slow consumer: the socket will not drain and the backlog is
      // past the bound — disconnect rather than buffer without limit
      // for a peer that sends but never reads. (A zero return from
      // write() on a stream socket means nothing was accepted, not that
      // the peer vanished — treat it like EAGAIN, not like an error.)
      if (conn.out.size() - conn.out_pos > OutputBacklogLimit()) {
        CloseConnection(conn.id);
        return;
      }
      UpdateInterest(conn);
      return;
    }
    CloseConnection(conn.id);  // peer vanished mid-write
    return;
  }
  conn.out.clear();
  conn.out_pos = 0;
  UpdateInterest(conn);
  if (conn.close_after_flush) CloseConnection(conn.id);
}

void NetServer::Impl::UpdateInterest(Connection& conn) {
  const bool want = conn.out_pos < conn.out.size();
  if (want == conn.want_writable) return;
  conn.want_writable = want;
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.u64 = conn.id;
  epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
}

void NetServer::Impl::CloseConnection(uint64_t id) {
  auto it = conns.find(id);
  if (it == conns.end()) return;
  epoll_ctl(epoll_fd, EPOLL_CTL_DEL, it->second->fd, nullptr);
  ::close(it->second->fd);
  conns.erase(it);
  // In-flight responses for this id are dropped at delivery (the id is
  // never reused).
}

void NetServer::Impl::DeliverResponses() {
  std::vector<Response> batch;
  {
    std::lock_guard<std::mutex> lock(response_mu);
    batch.swap(responses);
  }
  for (Response& response : batch) {
    auto it = conns.find(response.conn_id);
    if (it == conns.end()) continue;  // connection died while serving
    Connection& conn = *it->second;
    GTPQ_DCHECK(conn.inflight > 0);
    if (conn.inflight > 0) --conn.inflight;
    conn.out.append(response.bytes);
    FlushConnection(conn);
  }
}

// ----------------------------------------------------------- dispatch

void NetServer::Impl::DispatchLoop() {
  while (true) {
    std::unique_lock<std::mutex> lock(queue_mu);
    queue_cv.wait(lock, [this] {
      return !queue.empty() || stop_dispatch.load();
    });
    if (queue.empty()) {
      if (stop_dispatch.load()) return;
      continue;
    }
    PendingRequest first = std::move(queue.front());
    queue.pop_front();
    if (first.type == FrameType::kApplyUpdates) {
      lock.unlock();
      ProcessApply(first);
      continue;
    }

    // Coalesce: keep adopting query-type requests until the group is
    // full or the window (measured from the first adopted query)
    // expires. An APPLY_UPDATES at the queue head ends the group so
    // updates are not starved by a steady query stream.
    std::vector<PendingRequest> group;
    group.push_back(std::move(first));
    Timer window;
    while (group.size() < options.coalesce_max_queries &&
           !stop_dispatch.load()) {
      if (!queue.empty()) {
        if (queue.front().type == FrameType::kApplyUpdates) break;
        group.push_back(std::move(queue.front()));
        queue.pop_front();
        continue;
      }
      const double left_us =
          options.coalesce_window_us - window.ElapsedMicros();
      if (left_us <= 0) break;
      queue_cv.wait_for(
          lock, std::chrono::microseconds(static_cast<int64_t>(left_us)),
          [this] { return !queue.empty() || stop_dispatch.load(); });
      if (queue.empty()) break;  // timeout or spurious + stop
    }
    NetMetrics::Get().dispatch_queue_depth->Set(
        static_cast<int64_t>(queue.size()));
    lock.unlock();
    NetMetrics::Get().coalesced_batch_size->Record(group.size());
    ProcessQueryGroup(std::move(group));
  }
}

void NetServer::Impl::ProcessQueryGroup(std::vector<PendingRequest> group) {
  // Per adopted request: the decoded queries and where its answers live.
  struct Parsed {
    const PendingRequest* request;
    bool is_batch = false;
    uint64_t result_limit = 0;
    std::vector<Gtpq> queries;
    std::vector<QueryResult> results;
    uint64_t epoch = 0;
    // The dispatch span of a traced request covers it from decode to
    // response, parents the per-query evaluate spans, and is parented
    // by the frame header's parent_span.
    uint64_t dispatch_span = 0;
    double dispatch_start_us = 0;
  };
  std::vector<Parsed> parsed;
  parsed.reserve(group.size());

  // The whole group parses into ONE private clone of the graph's
  // attribute namespace: known names keep their interned ids (so
  // predicates line up with graph tuples), unknown names get fresh ids
  // no tuple carries, and the graph's shared namespace is never
  // mutated. One clone per group (not per request) is safe because the
  // dispatcher is serial — parsing of this group finishes before its
  // EvaluateBatch runs, and the next group gets a fresh clone.
  auto names = std::make_shared<AttrNames>(graph->attr_names());

  for (const PendingRequest& request : group) {
    Parsed p;
    p.request = &request;
    std::vector<std::string> texts;
    if (request.type == FrameType::kQuery) {
      QueryRequest decoded;
      const Status st = DecodeQueryRequest(request.payload, &decoded);
      if (!st.ok()) {
        RespondError(request, st);
        continue;
      }
      p.result_limit = decoded.result_limit;
      texts.push_back(std::move(decoded.text));
    } else {
      BatchRequest decoded;
      const Status st =
          DecodeBatchRequest(request.payload, options.limits, &decoded);
      if (!st.ok()) {
        RespondError(request, st);
        continue;
      }
      p.is_batch = true;
      p.result_limit = decoded.result_limit;
      texts = std::move(decoded.texts);
    }
    if (request.trace.active()) {
      p.dispatch_span = obs::TraceRecorder::Global().NewSpanId();
      p.dispatch_start_us = obs::NowMicros();
    }

    bool bad = false;
    for (size_t i = 0; i < texts.size(); ++i) {
      auto query = ParseQuery(texts[i], names);
      if (!query.ok()) {
        RespondError(*p.request,
                     Status::InvalidArgument(
                         "query " + std::to_string(i) + ": " +
                         query.status().message()));
        bad = true;
        break;
      }
      p.queries.push_back(query.TakeValue());
    }
    if (!bad) parsed.push_back(std::move(p));
  }

  // One EvaluateBatch per distinct result limit — requests in a
  // coalesced group usually share one — so per-request limits are
  // honored while the whole group still rides the pool. Each dispatch pins one snapshot; its
  // BatchInfo epoch stamps the responses.
  std::vector<Gtpq> queries;
  std::vector<obs::TraceContext> traces;  // aligned with `queries`
  std::vector<std::pair<size_t, size_t>> origin;  // (parsed idx, query idx)
  std::vector<size_t> members;                    // parsed idxs this round
  std::vector<char> done(parsed.size(), 0);
  for (size_t anchor = 0; anchor < parsed.size(); ++anchor) {
    if (done[anchor]) continue;
    const uint64_t limit = parsed[anchor].result_limit;
    queries.clear();
    traces.clear();
    origin.clear();
    members.clear();
    for (size_t i = anchor; i < parsed.size(); ++i) {
      if (done[i] || parsed[i].result_limit != limit) continue;
      done[i] = 1;
      members.push_back(i);
      for (size_t q = 0; q < parsed[i].queries.size(); ++q) {
        queries.push_back(std::move(parsed[i].queries[q]));
        traces.push_back(obs::TraceContext{parsed[i].request->trace.trace_id,
                                           parsed[i].dispatch_span});
        origin.emplace_back(i, q);
      }
      parsed[i].results.resize(parsed[i].queries.size());
    }
    GteaOptions eval = options.runtime.eval_options;
    if (limit != 0) eval.result_limit = static_cast<size_t>(limit);
    QueryServer::BatchInfo info;
    std::vector<QueryResult> results =
        runtime->EvaluateBatch(queries, &info, eval, traces);
    batches_dispatched.fetch_add(1, std::memory_order_relaxed);
    queries_served.fetch_add(queries.size(), std::memory_order_relaxed);
    // Every member gets the pinned epoch — including zero-query BATCH
    // requests, whose response is an epoch probe and nothing else.
    for (size_t i : members) parsed[i].epoch = info.epoch;
    for (size_t k = 0; k < results.size(); ++k) {
      auto [i, q] = origin[k];
      parsed[i].results[q] = std::move(results[k]);
    }
  }

  for (Parsed& p : parsed) {
    const obs::TraceContext& trace = p.request->trace;
    if (trace.active()) {
      obs::TraceRecorder::Global().Record(
          trace.trace_id, p.dispatch_span, trace.parent_span, "dispatch",
          p.dispatch_start_us, obs::NowMicros() - p.dispatch_start_us);
    }
    if (p.is_batch) {
      WireBatchResult result;
      result.epoch = p.epoch;
      result.results = std::move(p.results);
      Respond(p.request->conn_id, FrameType::kBatchResult,
              p.request->request_id, EncodeBatchResult(result));
    } else {
      WireResult result;
      result.epoch = p.epoch;
      result.result = std::move(p.results[0]);
      Respond(p.request->conn_id, FrameType::kResult,
              p.request->request_id, EncodeResult(result));
    }
  }
}

void NetServer::Impl::ProcessApply(const PendingRequest& request) {
  std::istringstream in(request.payload);
  auto batches = LoadUpdateBatches(&in);
  if (!batches.ok()) {
    RespondError(request, batches.status());
    return;
  }
  uint64_t applied = 0;
  for (const UpdateBatch& batch : *batches) {
    const Status st = runtime->ApplyUpdates(batch);
    if (!st.ok()) {
      RespondError(request,
                   Status(st.code(), "update batch " +
                                         std::to_string(applied) + ": " +
                                         st.message()));
      return;
    }
    ++applied;
  }
  ApplyOk ok;
  ok.epoch = runtime->epoch();
  ok.batches_applied = applied;
  Respond(request.conn_id, FrameType::kApplyOk, request.request_id,
          EncodeApplyOk(ok));
}

void NetServer::Impl::Respond(uint64_t conn_id, FrameType type,
                              uint64_t request_id,
                              std::string_view payload) {
  Response response;
  response.conn_id = conn_id;
  EncodeResponse(options.limits, type, request_id, payload,
                 &response.bytes);
  {
    std::lock_guard<std::mutex> lock(response_mu);
    responses.push_back(std::move(response));
  }
  Wake();
}

// ------------------------------------------------------------- facade

NetServer::NetServer(const DataGraph& g, NetServerOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->graph = &g;
  impl_->options = std::move(options);
  impl_->runtime =
      std::make_unique<QueryServer>(g, impl_->options.runtime);
}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  GTPQ_CHECK(!impl_->started.load()) << "NetServer started twice";
  GTPQ_RETURN_NOT_OK(impl_->runtime->status());
  Status st = impl_->Start();
  if (!st.ok()) impl_->CloseFds();
  return st;
}

void NetServer::Stop() { impl_->Stop(); }

bool NetServer::running() const { return impl_->started.load(); }

uint16_t NetServer::port() const { return impl_->bound_port.load(); }

QueryServer& NetServer::runtime() { return *impl_->runtime; }
const QueryServer& NetServer::runtime() const { return *impl_->runtime; }

NetServer::Counters NetServer::counters() const {
  Counters out;
  out.connections_accepted =
      impl_->connections_accepted.load(std::memory_order_relaxed);
  out.queries_served =
      impl_->queries_served.load(std::memory_order_relaxed);
  out.probes_served =
      impl_->probes_served.load(std::memory_order_relaxed);
  out.batches_dispatched =
      impl_->batches_dispatched.load(std::memory_order_relaxed);
  out.rejected_overload =
      impl_->rejected_overload.load(std::memory_order_relaxed);
  out.protocol_errors =
      impl_->protocol_errors.load(std::memory_order_relaxed);
  return out;
}

#else  // !defined(__linux__)

/// Non-Linux stub: the front-end needs epoll. The rest of the repo
/// (wire codec included) stays fully portable.
struct NetServer::Impl {
  const DataGraph* graph = nullptr;
  NetServerOptions options;
  std::unique_ptr<QueryServer> runtime;
};

NetServer::NetServer(const DataGraph& g, NetServerOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->graph = &g;
  impl_->options = std::move(options);
  impl_->runtime =
      std::make_unique<QueryServer>(g, impl_->options.runtime);
}

NetServer::~NetServer() = default;

Status NetServer::Start() {
  return Status::Unimplemented(
      "NetServer requires epoll (Linux-only); this build has no network "
      "front-end");
}

void NetServer::Stop() {}
bool NetServer::running() const { return false; }
uint16_t NetServer::port() const { return 0; }
QueryServer& NetServer::runtime() { return *impl_->runtime; }
const QueryServer& NetServer::runtime() const { return *impl_->runtime; }
NetServer::Counters NetServer::counters() const { return Counters(); }

#endif  // defined(__linux__)

}  // namespace net
}  // namespace gtpq

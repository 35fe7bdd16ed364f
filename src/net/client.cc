#include "net/client.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <sstream>
#include <utility>

#include "dynamic/update_io.h"
#include "obs/trace.h"

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#define GTPQ_NET_CLIENT_POSIX 1
#endif

namespace gtpq {
namespace net {

bool ParseHostPort(const std::string& spec, std::string* host,
                   uint16_t* port) {
  const size_t colon = spec.rfind(':');
  const std::string host_part =
      colon == std::string::npos ? "127.0.0.1" : spec.substr(0, colon);
  const std::string port_part =
      colon == std::string::npos ? spec : spec.substr(colon + 1);
  char* end = nullptr;
  const unsigned long value = std::strtoul(port_part.c_str(), &end, 10);
  if (port_part.empty() || host_part.empty() ||
      end != port_part.c_str() + port_part.size() || value == 0 ||
      value > 65535) {
    return false;
  }
  *host = host_part;
  *port = static_cast<uint16_t>(value);
  return true;
}

#if defined(GTPQ_NET_CLIENT_POSIX)

namespace {
Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}
}  // namespace

NetClient::~NetClient() { Close(); }

void NetClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  parked_.clear();
}

Status NetClient::Connect(const std::string& host, uint16_t port,
                          WireLimits limits) {
  if (fd_ >= 0) return Status::FailedPrecondition("already connected");
  limits_ = limits;
  decoder_ = FrameDecoder(limits);

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("need a numeric IPv4 host, got: " +
                                   host);
  }

  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Errno("socket");
  int rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno == EINTR) {
    // An interrupted connect keeps establishing in the background;
    // re-calling connect() yields EALREADY, not a retry. Wait for
    // writability and read the final outcome from SO_ERROR instead.
    pollfd pfd{fd_, POLLOUT, 0};
    int pr;
    do {
      pr = ::poll(&pfd, 1, /*timeout=*/-1);
    } while (pr < 0 && errno == EINTR);
    if (pr > 0) {
      int soerr = 0;
      socklen_t len = sizeof(soerr);
      if (getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &len) == 0 &&
          soerr == 0) {
        rc = 0;
      } else {
        errno = soerr != 0 ? soerr : errno;
      }
    }
  }
  if (rc < 0) {
    const Status st = Errno("connect " + host + ":" + std::to_string(port));
    Close();
    return st;
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  const Status st = Hello();
  if (!st.ok()) Close();
  return st;
}

Result<uint64_t> NetClient::Send(FrameType type, std::string_view payload) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  if (payload.size() + kFrameOverhead > limits_.max_frame_bytes) {
    return Status::OutOfRange(
        "request payload of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(limits_.max_frame_bytes) +
        "-byte frame limit");
  }
  const uint64_t id = next_request_id_++;
  std::string bytes;
  EncodeFrame(type, id, obs::CurrentTrace(), payload, &bytes);
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return id;
}

Result<Frame> NetClient::ReadFrame() {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  while (true) {
    auto frame = decoder_.Next();
    if (!frame.ok()) return frame.status();
    if (frame->has_value()) return std::move(**frame);
    char buf[64 * 1024];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      return Status::Internal("server closed the connection");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    decoder_.Append(buf, static_cast<size_t>(n));
  }
}

Status ConnectWithRetry(NetClient* client, const std::string& host,
                        uint16_t port, WireLimits limits, int attempts,
                        int backoff_ms) {
  Status last = Status::OK();
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      timespec ts;
      ts.tv_sec = backoff_ms / 1000;
      ts.tv_nsec = static_cast<long>(backoff_ms % 1000) * 1000000L;
      ::nanosleep(&ts, nullptr);
      if (backoff_ms < 500) backoff_ms = std::min(backoff_ms * 2, 500);
    }
    last = client->Connect(host, port, limits);
    if (last.ok()) return last;
    // Only a refused/timed-out connect means "the server is still
    // binding"; anything else (bad host, handshake failure) is final.
    const bool listening_race =
        last.message().find(std::strerror(ECONNREFUSED)) !=
            std::string::npos ||
        last.message().find(std::strerror(ETIMEDOUT)) != std::string::npos;
    if (!listening_race) return last;
  }
  return last;
}

#else  // !GTPQ_NET_CLIENT_POSIX

NetClient::~NetClient() = default;
void NetClient::Close() {}
Status NetClient::Connect(const std::string&, uint16_t, WireLimits) {
  return Status::Unimplemented("NetClient requires POSIX sockets");
}
Result<uint64_t> NetClient::Send(FrameType, std::string_view) {
  return Status::Unimplemented("NetClient requires POSIX sockets");
}
Result<Frame> NetClient::ReadFrame() {
  return Status::Unimplemented("NetClient requires POSIX sockets");
}
Status ConnectWithRetry(NetClient*, const std::string&, uint16_t,
                        WireLimits, int, int) {
  return Status::Unimplemented("NetClient requires POSIX sockets");
}

#endif  // GTPQ_NET_CLIENT_POSIX

// Everything below speaks through Send and ReadFrame, so it is the same
// on every platform.

Result<Frame> NetClient::Receive() {
  if (!parked_.empty()) {
    Frame frame = std::move(parked_.front());
    parked_.pop_front();
    return frame;
  }
  return ReadFrame();
}

Result<Frame> NetClient::WaitFor(uint64_t request_id) {
  for (auto it = parked_.begin(); it != parked_.end(); ++it) {
    if (it->request_id == request_id) {
      Frame frame = std::move(*it);
      parked_.erase(it);
      return frame;
    }
  }
  while (true) {
    auto frame = ReadFrame();
    if (!frame.ok()) return frame.status();
    if (frame->request_id == request_id) return frame;
    parked_.push_back(std::move(*frame));
  }
}

Result<std::string> NetClient::WaitForResponse(uint64_t request_id,
                                               FrameType expect) {
  auto frame = WaitFor(request_id);
  if (!frame.ok()) return frame.status();
  if (frame->type == FrameType::kError) {
    return DecodeError(frame->payload);
  }
  if (frame->type != expect) {
    return Status::Internal(std::string("expected ") +
                            FrameTypeName(expect) + " response, got " +
                            FrameTypeName(frame->type));
  }
  return std::move(frame->payload);
}

Result<std::string> NetClient::RoundTrip(FrameType type,
                                         std::string_view payload,
                                         FrameType expect) {
  auto id = Send(type, payload);
  if (!id.ok()) return id.status();
  return WaitForResponse(*id, expect);
}

Result<WireResult> NetClient::Query(const std::string& text,
                                    uint64_t result_limit) {
  auto id = Send(FrameType::kBatch, EncodeQueryRequest({result_limit, text}));
  if (!id.ok()) return id.status();
  auto payload = WaitForResponse(*id, FrameType::kBatchResult);
  if (!payload.ok()) return payload.status();
  WireResult out;
  GTPQ_RETURN_NOT_OK(DecodeResult(*payload, &out));
  return out;
}

Result<WireBatchResult> NetClient::QueryBatch(
    const std::vector<std::string>& texts, uint64_t result_limit) {
  auto id = SendBatch(texts, result_limit);
  if (!id.ok()) return id.status();
  auto payload = WaitForResponse(*id, FrameType::kBatchResult);
  if (!payload.ok()) return payload.status();
  WireBatchResult out;
  GTPQ_RETURN_NOT_OK(DecodeBatchResult(*payload, &out));
  return out;
}

Result<ApplyOk> NetClient::ApplyUpdates(const std::string& updates_text) {
  auto payload = RoundTrip(FrameType::kApplyUpdates, updates_text,
                           FrameType::kApplyOk);
  if (!payload.ok()) return payload.status();
  ApplyOk out;
  GTPQ_RETURN_NOT_OK(DecodeApplyOk(*payload, &out));
  return out;
}

Result<ApplyOk> NetClient::ApplyUpdates(std::span<const UpdateBatch> batches) {
  std::ostringstream text;
  GTPQ_RETURN_NOT_OK(SaveUpdateBatches(batches, &text));
  return ApplyUpdates(text.str());
}

Status NetClient::Hello() {
  auto payload =
      RoundTrip(FrameType::kHello, EncodeHello(), FrameType::kHelloOk);
  if (!payload.ok()) return payload.status();
  HelloOk info;
  GTPQ_RETURN_NOT_OK(DecodeHelloOk(*payload, &info));
  server_info_ = std::move(info);
  return Status::OK();
}

Result<ProbeResult> NetClient::Probe(const ProbeRequest& request) {
  auto id = SendProbe(request);
  if (!id.ok()) return id.status();
  auto payload = WaitForResponse(*id, FrameType::kProbeResult);
  if (!payload.ok()) return payload.status();
  ProbeResult out;
  GTPQ_RETURN_NOT_OK(DecodeProbeResult(*payload, &out));
  if (out.rows != request.pivots.size() || out.cols != request.ids.size()) {
    return Status::Internal(
        "probe answered " + std::to_string(out.rows) + " x " +
        std::to_string(out.cols) + ", asked " +
        std::to_string(request.pivots.size()) + " x " +
        std::to_string(request.ids.size()));
  }
  return out;
}

Result<std::string> NetClient::Observe(ObserveKind kind,
                                       uint64_t trace_id) {
  auto id = SendObserve(kind, trace_id);
  if (!id.ok()) return id.status();
  return WaitForResponse(*id, FrameType::kObserveResult);
}

Result<obs::MetricsSnapshot> NetClient::Metrics() {
  auto body = Observe(ObserveKind::kMetricsSnapshot);
  if (!body.ok()) return body.status();
  obs::MetricsSnapshot snapshot;
  GTPQ_RETURN_NOT_OK(obs::DecodeMetricsSnapshot(*body, &snapshot));
  return snapshot;
}

Result<std::vector<obs::ProcessSpans>> NetClient::Spans(uint64_t trace_id) {
  auto body = Observe(ObserveKind::kSpans, trace_id);
  if (!body.ok()) return body.status();
  std::vector<obs::ProcessSpans> groups;
  GTPQ_RETURN_NOT_OK(obs::DecodeSpans(*body, &groups));
  return groups;
}

Result<uint64_t> NetClient::SendBatch(const std::vector<std::string>& texts,
                                      uint64_t result_limit) {
  return Send(FrameType::kBatch, EncodeBatchRequest({result_limit, texts}));
}

Result<uint64_t> NetClient::SendProbe(const ProbeRequest& request) {
  return Send(FrameType::kProbe, EncodeProbeRequest(request));
}

Result<uint64_t> NetClient::SendObserve(ObserveKind kind,
                                        uint64_t trace_id) {
  return Send(FrameType::kObserve, EncodeObserveRequest(kind, trace_id));
}

}  // namespace net
}  // namespace gtpq

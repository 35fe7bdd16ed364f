#include "net/wire.h"

#include <cstring>
#include <limits>
#include <span>

#include "common/logging.h"
#include "storage/serializer.h"

namespace gtpq {
namespace net {

namespace {

using storage::Reader;
using storage::Writer;

Status WrapReader(std::string_view payload, const char* what,
                  Status (*fn)(Reader*, void*), void* out) {
  Reader r(payload);
  Status st = fn(&r, out);
  if (!st.ok()) {
    return Status::ParseError(std::string("malformed ") + what +
                              " payload: " + st.message());
  }
  st = r.ExpectEnd();
  if (!st.ok()) {
    return Status::ParseError(std::string("malformed ") + what +
                              " payload: " + st.message());
  }
  return Status::OK();
}

/// QueryResult body: output node ids, tuple count, then all tuple
/// cells as one flat POD vector (num_tuples x |output_nodes| NodeIds).
void EncodeQueryResult(const QueryResult& result, Writer* w) {
  w->WritePodVec(result.output_nodes);
  w->WriteU64(result.tuples.size());
  std::vector<NodeId> flat;
  flat.reserve(result.tuples.size() * result.output_nodes.size());
  for (const ResultTuple& tuple : result.tuples) {
    flat.insert(flat.end(), tuple.begin(), tuple.end());
  }
  w->WritePodVec(flat);
}

Status DecodeQueryResult(Reader* r, QueryResult* out) {
  out->tuples.clear();
  GTPQ_RETURN_NOT_OK(r->ReadPodVec(&out->output_nodes));
  uint64_t num_tuples = 0;
  GTPQ_RETURN_NOT_OK(r->ReadU64(&num_tuples));
  std::vector<NodeId> flat;
  GTPQ_RETURN_NOT_OK(r->ReadPodVec(&flat));
  const size_t width = out->output_nodes.size();
  // The declared count must be derivable from the (already
  // bounds-checked) cell vector — division, not multiplication, so a
  // hostile count can neither overflow nor drive the resize below
  // beyond the bytes actually received. Width 0 (no output nodes)
  // normalizes to at most one empty tuple.
  const bool consistent =
      width == 0
          ? flat.empty() && num_tuples <= 1
          : flat.size() % width == 0 && num_tuples == flat.size() / width;
  if (!consistent) {
    return Status::ParseError("result tuple cells do not match the "
                              "declared tuple count");
  }
  out->tuples.resize(static_cast<size_t>(num_tuples));
  for (size_t i = 0; i < out->tuples.size(); ++i) {
    out->tuples[i].assign(flat.begin() + i * width,
                          flat.begin() + (i + 1) * width);
  }
  return Status::OK();
}

Status ExpectMagic(Reader* r) {
  uint32_t magic = 0, version = 0;
  GTPQ_RETURN_NOT_OK(r->ReadU32(&magic));
  GTPQ_RETURN_NOT_OK(r->ReadU32(&version));
  if (magic != kWireMagic) {
    return Status::InvalidArgument("bad protocol magic (not gtpq-wire)");
  }
  if (version != kWireVersion) {
    return Status::InvalidArgument("unsupported gtpq-wire version " +
                                   std::to_string(version));
  }
  return Status::OK();
}

}  // namespace

bool IsRequestType(uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kHello:
    case FrameType::kBatch:
    case FrameType::kApplyUpdates:
    case FrameType::kProbe:
    case FrameType::kObserve:
      return true;
    default:
      return false;
  }
}

bool IsKnownType(uint8_t type) {
  return IsRequestType(type & 0x7f) ||
         type == static_cast<uint8_t>(FrameType::kError);
}

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kBatch: return "BATCH";
    case FrameType::kApplyUpdates: return "APPLY_UPDATES";
    case FrameType::kProbe: return "PROBE";
    case FrameType::kObserve: return "OBSERVE";
    case FrameType::kError: return "ERROR";
    case FrameType::kHelloOk: return "HELLO_OK";
    case FrameType::kBatchResult: return "BATCH_RESULT";
    case FrameType::kApplyOk: return "APPLY_OK";
    case FrameType::kProbeResult: return "PROBE_RESULT";
    case FrameType::kObserveResult: return "OBSERVE_RESULT";
  }
  return "UNKNOWN";
}

void EncodeFrame(FrameType type, uint64_t request_id,
                 obs::TraceContext trace, std::string_view payload,
                 std::string* out) {
  Writer body;
  body.WriteU8(static_cast<uint8_t>(type));
  body.WriteU64(request_id);
  body.WriteU64(trace.trace_id);
  body.WriteU64(trace.parent_span);
  body.WriteBytes(payload.data(), payload.size());
  const uint32_t crc =
      storage::Crc32(body.buffer().data(), body.buffer().size());

  Writer frame;
  frame.WriteU32(static_cast<uint32_t>(body.buffer().size() + 4));
  out->append(frame.buffer());
  out->append(body.buffer());
  Writer trailer;
  trailer.WriteU32(crc);
  out->append(trailer.buffer());
}

Result<std::optional<Frame>> FrameDecoder::Next() {
  // Reclaim consumed prefix bytes lazily, once they dominate the
  // buffer, so pipelined small frames do not trigger per-frame moves.
  if (consumed_ > 4096 && consumed_ > buf_.size() / 2) {
    buf_.erase(0, consumed_);
    consumed_ = 0;
  }
  const std::string_view pending =
      std::string_view(buf_).substr(consumed_);
  if (pending.size() < 4) return std::optional<Frame>();
  Reader len_reader(pending);
  uint32_t length = 0;
  GTPQ_CHECK(len_reader.ReadU32(&length).ok());
  if (length < kFrameOverhead) {
    return Status::ParseError("frame length " + std::to_string(length) +
                              " below the " +
                              std::to_string(kFrameOverhead) +
                              "-byte minimum");
  }
  if (length > limits_.max_frame_bytes) {
    return Status::ParseError(
        "frame length " + std::to_string(length) + " exceeds the " +
        std::to_string(limits_.max_frame_bytes) + "-byte limit");
  }
  if (pending.size() < 4 + static_cast<size_t>(length)) {
    return std::optional<Frame>();
  }

  const std::string_view body = pending.substr(4, length - 4);
  Reader trailer(pending.substr(4 + body.size(), 4));
  uint32_t declared_crc = 0;
  GTPQ_CHECK(trailer.ReadU32(&declared_crc).ok());
  if (storage::Crc32(body.data(), body.size()) != declared_crc) {
    return Status::ParseError("frame checksum mismatch");
  }

  Frame frame;
  Reader r(body);
  uint8_t type = 0;
  GTPQ_CHECK(r.ReadU8(&type).ok());
  GTPQ_CHECK(r.ReadU64(&frame.request_id).ok());
  GTPQ_CHECK(r.ReadU64(&frame.trace.trace_id).ok());
  GTPQ_CHECK(r.ReadU64(&frame.trace.parent_span).ok());
  if (!IsKnownType(type)) {
    return Status::ParseError("unknown frame type " + std::to_string(type));
  }
  frame.type = static_cast<FrameType>(type);
  frame.payload.assign(body.substr(1 + 8 + 16));
  consumed_ += 4 + static_cast<size_t>(length);
  return std::optional<Frame>(std::move(frame));
}

// --- Payload codecs ----------------------------------------------------

std::string EncodeHello() {
  Writer w;
  w.WriteU32(kWireMagic);
  w.WriteU32(kWireVersion);
  return w.buffer();
}

Status DecodeHello(std::string_view payload) {
  return WrapReader(
      payload, "HELLO",
      [](Reader* r, void*) -> Status { return ExpectMagic(r); }, nullptr);
}

std::string EncodeHelloOk(const HelloOk& hello) {
  Writer w;
  w.WriteU32(kWireMagic);
  w.WriteU32(kWireVersion);
  w.WriteU64(hello.epoch);
  w.WriteU64(hello.graph_nodes);
  w.WriteString(hello.engine);
  return w.buffer();
}

Status DecodeHelloOk(std::string_view payload, HelloOk* out) {
  return WrapReader(
      payload, "HELLO_OK",
      [](Reader* r, void* opaque) -> Status {
        auto* hello = static_cast<HelloOk*>(opaque);
        GTPQ_RETURN_NOT_OK(ExpectMagic(r));
        GTPQ_RETURN_NOT_OK(r->ReadU64(&hello->epoch));
        GTPQ_RETURN_NOT_OK(r->ReadU64(&hello->graph_nodes));
        return r->ReadString(&hello->engine);
      },
      out);
}

namespace {

void WriteBatchResult(uint64_t epoch, std::span<const QueryResult> results,
                      Writer* w) {
  w->WriteU64(epoch);
  w->WriteU32(static_cast<uint32_t>(results.size()));
  for (const QueryResult& r : results) EncodeQueryResult(r, w);
}

/// A BATCH of one, or its answer, carries exactly one of its `items`.
Status ExpectOne(const char* frame, size_t count, const char* items) {
  if (count == 1) return Status::OK();
  return Status::ParseError(std::string(frame) + " carries " +
                            std::to_string(count) + " " + items +
                            ", expected one");
}

}  // namespace

std::string EncodeBatchRequest(const BatchRequest& request) {
  Writer w;
  w.WriteU64(request.result_limit);
  w.WriteU32(static_cast<uint32_t>(request.texts.size()));
  for (const std::string& text : request.texts) w.WriteString(text);
  return w.buffer();
}

Status DecodeBatchRequest(std::string_view payload,
                          const WireLimits& limits, BatchRequest* out) {
  Reader r(payload);
  out->texts.clear();
  Status st = [&]() -> Status {
    GTPQ_RETURN_NOT_OK(r.ReadU64(&out->result_limit));
    uint32_t count = 0;
    GTPQ_RETURN_NOT_OK(r.ReadU32(&count));
    if (count > limits.max_batch_queries) {
      return Status::InvalidArgument(
          "batch of " + std::to_string(count) + " queries exceeds the " +
          std::to_string(limits.max_batch_queries) + "-query limit");
    }
    out->texts.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      std::string text;
      GTPQ_RETURN_NOT_OK(r.ReadString(&text));
      out->texts.push_back(std::move(text));
    }
    return r.ExpectEnd();
  }();
  if (!st.ok() && st.code() == StatusCode::kParseError) {
    return Status::ParseError("malformed BATCH payload: " + st.message());
  }
  return st;
}

std::string EncodeQueryRequest(const QueryRequest& request) {
  return EncodeBatchRequest({request.result_limit, {request.text}});
}

Status DecodeQueryRequest(std::string_view payload, QueryRequest* out) {
  BatchRequest batch;
  GTPQ_RETURN_NOT_OK(DecodeBatchRequest(payload, WireLimits{}, &batch));
  GTPQ_RETURN_NOT_OK(ExpectOne("BATCH", batch.texts.size(), "queries"));
  out->result_limit = batch.result_limit;
  out->text = std::move(batch.texts[0]);
  return Status::OK();
}

std::string EncodeBatchResult(const WireBatchResult& result) {
  Writer w;
  WriteBatchResult(result.epoch, result.results, &w);
  return w.buffer();
}

Status DecodeBatchResult(std::string_view payload, WireBatchResult* out) {
  return WrapReader(
      payload, "BATCH_RESULT",
      [](Reader* r, void* opaque) -> Status {
        auto* result = static_cast<WireBatchResult*>(opaque);
        result->results.clear();
        GTPQ_RETURN_NOT_OK(r->ReadU64(&result->epoch));
        uint32_t count = 0;
        GTPQ_RETURN_NOT_OK(r->ReadU32(&count));
        // Every result costs at least its three count fields.
        if (count > r->remaining() / 24 + 1) {
          return Status::ParseError("batch result count is implausible");
        }
        result->results.resize(count);
        for (QueryResult& one : result->results) {
          GTPQ_RETURN_NOT_OK(DecodeQueryResult(r, &one));
        }
        return Status::OK();
      },
      out);
}

std::string EncodeResult(const WireResult& result) {
  Writer w;
  WriteBatchResult(result.epoch, std::span(&result.result, 1), &w);
  return w.buffer();
}

Status DecodeResult(std::string_view payload, WireResult* out) {
  WireBatchResult batch;
  GTPQ_RETURN_NOT_OK(DecodeBatchResult(payload, &batch));
  GTPQ_RETURN_NOT_OK(
      ExpectOne("BATCH_RESULT", batch.results.size(), "results"));
  out->epoch = batch.epoch;
  out->result = std::move(batch.results[0]);
  return Status::OK();
}

std::string EncodeApplyOk(const ApplyOk& apply) {
  Writer w;
  w.WriteU64(apply.epoch);
  w.WriteU64(apply.batches_applied);
  return w.buffer();
}

Status DecodeApplyOk(std::string_view payload, ApplyOk* out) {
  return WrapReader(
      payload, "APPLY_OK",
      [](Reader* r, void* opaque) -> Status {
        auto* apply = static_cast<ApplyOk*>(opaque);
        GTPQ_RETURN_NOT_OK(r->ReadU64(&apply->epoch));
        return r->ReadU64(&apply->batches_applied);
      },
      out);
}

std::string EncodeProbeRequest(const ProbeRequest& request) {
  Writer w;
  w.WriteU8(request.reverse ? 1 : 0);
  w.WritePodVec(request.pivots);
  w.WritePodVec(request.ids);
  return w.buffer();
}

Status DecodeProbeRequest(std::string_view payload, ProbeRequest* out) {
  return WrapReader(
      payload, "PROBE",
      [](Reader* r, void* opaque) -> Status {
        auto* request = static_cast<ProbeRequest*>(opaque);
        uint8_t direction = 0;
        GTPQ_RETURN_NOT_OK(r->ReadU8(&direction));
        if (direction > 1) {
          return Status::ParseError("probe direction must be 0 or 1");
        }
        request->reverse = direction == 1;
        GTPQ_RETURN_NOT_OK(r->ReadPodVec(&request->pivots));
        return r->ReadPodVec(&request->ids);
      },
      out);
}

namespace {
size_t ProbeMatrixBytes(uint32_t rows, uint32_t cols) {
  return (static_cast<size_t>(rows) * cols + 7) / 8;
}

// Fixed PROBE_RESULT bytes (epoch, rows, cols, bitmask count) and fixed
// PROBE bytes (direction, two list counts).
constexpr size_t kProbeResultFixed = 8 + 4 + 4 + 8;
constexpr size_t kProbeRequestFixed = 1 + 8 + 8;
}  // namespace

uint64_t MaxProbeCells(const WireLimits& limits) {
  const size_t fixed = kFrameOverhead + kProbeResultFixed;
  return limits.max_frame_bytes > fixed
             ? uint64_t{8} * (limits.max_frame_bytes - fixed)
             : 0;
}

size_t MaxProbeNodes(const WireLimits& limits) {
  const size_t fixed = kFrameOverhead + kProbeRequestFixed;
  return limits.max_frame_bytes > fixed
             ? (limits.max_frame_bytes - fixed) / sizeof(NodeId)
             : 0;
}

std::string EncodeProbeResult(const ProbeResult& result) {
  GTPQ_CHECK(result.bits.size() == ProbeMatrixBytes(result.rows, result.cols))
      << "probe bitmask does not cover the declared rows x cols";
  Writer w;
  w.WriteU64(result.epoch);
  w.WriteU32(result.rows);
  w.WriteU32(result.cols);
  w.WritePodVec(result.bits);
  return w.buffer();
}

Status DecodeProbeResult(std::string_view payload, ProbeResult* out) {
  return WrapReader(
      payload, "PROBE_RESULT",
      [](Reader* r, void* opaque) -> Status {
        auto* result = static_cast<ProbeResult*>(opaque);
        GTPQ_RETURN_NOT_OK(r->ReadU64(&result->epoch));
        GTPQ_RETURN_NOT_OK(r->ReadU32(&result->rows));
        GTPQ_RETURN_NOT_OK(r->ReadU32(&result->cols));
        GTPQ_RETURN_NOT_OK(r->ReadPodVec(&result->bits));
        // The bitmask must cover exactly the declared matrix — a
        // mismatch means corruption, not a shorter answer.
        if (result->bits.size() !=
            ProbeMatrixBytes(result->rows, result->cols)) {
          return Status::ParseError(
              "probe bitmask does not match the declared rows x cols");
        }
        return Status::OK();
      },
      out);
}

std::string EncodeObserveRequest(ObserveKind kind, uint64_t trace_id) {
  Writer w;
  w.WriteU8(static_cast<uint8_t>(kind));
  w.WriteU64(trace_id);
  return w.buffer();
}

namespace {
struct ObserveRequestOut {
  ObserveKind* kind;
  uint64_t* trace_id;
};
}  // namespace

Status DecodeObserveRequest(std::string_view payload, ObserveKind* kind,
                            uint64_t* trace_id) {
  ObserveRequestOut out{kind, trace_id};
  return WrapReader(
      payload, "OBSERVE",
      [](Reader* r, void* opaque) -> Status {
        auto* request = static_cast<ObserveRequestOut*>(opaque);
        uint8_t raw = 0;
        GTPQ_RETURN_NOT_OK(r->ReadU8(&raw));
        if (raw != static_cast<uint8_t>(ObserveKind::kSlowlog) &&
            raw != static_cast<uint8_t>(ObserveKind::kMetricsSnapshot) &&
            raw != static_cast<uint8_t>(ObserveKind::kSpans)) {
          return Status::ParseError("unknown observe kind " +
                                    std::to_string(raw));
        }
        *request->kind = static_cast<ObserveKind>(raw);
        return r->ReadU64(request->trace_id);
      },
      &out);
}

std::string EncodeError(const Status& status) {
  GTPQ_CHECK(!status.ok()) << "ERROR frames carry failures only";
  Writer w;
  w.WriteU8(static_cast<uint8_t>(status.code()));
  w.WriteString(status.message());
  return w.buffer();
}

Status DecodeError(std::string_view payload) {
  Reader r(payload);
  uint8_t code = 0;
  Status st = r.ReadU8(&code);
  std::string message;
  if (st.ok()) st = r.ReadString(&message);
  if (st.ok()) st = r.ExpectEnd();
  if (!st.ok()) {
    return Status::ParseError("malformed ERROR payload: " + st.message());
  }
  if (code == 0 || code > static_cast<uint8_t>(StatusCode::kInternal)) {
    return Status::Internal("peer error with invalid status code " +
                            std::to_string(code) + ": " + message);
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

}  // namespace net
}  // namespace gtpq

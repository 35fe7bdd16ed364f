#include "obs/federation.h"

#include <bit>
#include <map>

#include "storage/serializer.h"

namespace gtpq {
namespace obs {

namespace {

constexpr uint32_t kSnapshotMagic = 0x4d505447;  // "GTPM"
constexpr uint32_t kSpansMagic = 0x53505447;     // "GTPS"
/// v2: span dumps carry per-process groups (v1: one flat list).
constexpr uint32_t kCodecVersion = 2;

/// Appends a CRC-32 over everything written so far.
void SealCrc(storage::Writer* w) {
  const uint32_t crc =
      storage::Crc32(w->buffer().data(), w->buffer().size());
  w->WriteU32(crc);
}

/// Validates the trailing CRC and returns the body (everything before
/// it). Any truncation loses or corrupts the CRC, so every prefix of a
/// valid encoding is rejected here.
Status CheckCrcAndStrip(std::string_view bytes, const char* what,
                        std::string_view* body) {
  if (bytes.size() < 12) {  // magic + version + CRC at minimum
    return Status::ParseError(std::string(what) + " payload truncated");
  }
  uint32_t stored = 0;
  for (int i = 3; i >= 0; --i) {
    stored = (stored << 8) |
             static_cast<uint8_t>(bytes[bytes.size() - 4 + i]);
  }
  const uint32_t actual = storage::Crc32(bytes.data(), bytes.size() - 4);
  if (stored != actual) {
    return Status::ParseError(std::string(what) + " checksum mismatch");
  }
  *body = bytes.substr(0, bytes.size() - 4);
  return Status::OK();
}

Status CheckHeader(storage::Reader* r, uint32_t magic, const char* what) {
  uint32_t got_magic = 0, version = 0;
  GTPQ_RETURN_NOT_OK(r->ReadU32(&got_magic));
  if (got_magic != magic) {
    return Status::ParseError(std::string(what) + " bad magic");
  }
  GTPQ_RETURN_NOT_OK(r->ReadU32(&version));
  if (version != kCodecVersion) {
    return Status::ParseError(std::string(what) + " unsupported version " +
                              std::to_string(version));
  }
  return Status::OK();
}

}  // namespace

std::string EncodeMetricsSnapshot(const MetricsSnapshot& snapshot) {
  storage::Writer w;
  w.WriteU32(kSnapshotMagic);
  w.WriteU32(kCodecVersion);
  w.WriteU64(snapshot.counters.size());
  for (const auto& [name, value] : snapshot.counters) {
    w.WriteString(name);
    w.WriteU64(value);
  }
  w.WriteU64(snapshot.gauges.size());
  for (const auto& [name, value] : snapshot.gauges) {
    w.WriteString(name);
    w.WriteU64(static_cast<uint64_t>(value));
  }
  w.WriteU64(snapshot.histograms.size());
  for (const auto& [name, snap] : snapshot.histograms) {
    w.WriteString(name);
    w.WriteU64(snap.sum);
    // Sparse buckets: almost all of the 976 buckets are empty.
    uint64_t nonzero = 0;
    for (const uint64_t c : snap.counts) nonzero += (c != 0);
    w.WriteU64(nonzero);
    for (size_t i = 0; i < snap.counts.size(); ++i) {
      if (snap.counts[i] == 0) continue;
      w.WriteU32(static_cast<uint32_t>(i));
      w.WriteU64(snap.counts[i]);
    }
  }
  SealCrc(&w);
  return w.buffer();
}

Status DecodeMetricsSnapshot(std::string_view bytes,
                             MetricsSnapshot* out) {
  std::string_view body;
  GTPQ_RETURN_NOT_OK(CheckCrcAndStrip(bytes, "metrics snapshot", &body));
  storage::Reader r(body);
  GTPQ_RETURN_NOT_OK(CheckHeader(&r, kSnapshotMagic, "metrics snapshot"));
  *out = MetricsSnapshot();

  uint64_t count = 0;
  GTPQ_RETURN_NOT_OK(r.ReadU64(&count));
  for (uint64_t i = 0; i < count; ++i) {
    std::string name;
    uint64_t value = 0;
    GTPQ_RETURN_NOT_OK(r.ReadString(&name));
    GTPQ_RETURN_NOT_OK(r.ReadU64(&value));
    out->counters.emplace_back(std::move(name), value);
  }
  GTPQ_RETURN_NOT_OK(r.ReadU64(&count));
  for (uint64_t i = 0; i < count; ++i) {
    std::string name;
    uint64_t raw = 0;
    GTPQ_RETURN_NOT_OK(r.ReadString(&name));
    GTPQ_RETURN_NOT_OK(r.ReadU64(&raw));
    out->gauges.emplace_back(std::move(name),
                             static_cast<int64_t>(raw));
  }
  GTPQ_RETURN_NOT_OK(r.ReadU64(&count));
  for (uint64_t i = 0; i < count; ++i) {
    std::string name;
    Histogram::Snapshot snap;
    uint64_t nonzero = 0;
    GTPQ_RETURN_NOT_OK(r.ReadString(&name));
    GTPQ_RETURN_NOT_OK(r.ReadU64(&snap.sum));
    GTPQ_RETURN_NOT_OK(r.ReadU64(&nonzero));
    snap.counts.assign(Histogram::kNumBuckets, 0);
    for (uint64_t b = 0; b < nonzero; ++b) {
      uint32_t index = 0;
      uint64_t bucket = 0;
      GTPQ_RETURN_NOT_OK(r.ReadU32(&index));
      GTPQ_RETURN_NOT_OK(r.ReadU64(&bucket));
      if (index >= Histogram::kNumBuckets) {
        return Status::ParseError("metrics snapshot bucket index " +
                                  std::to_string(index) + " out of range");
      }
      snap.counts[index] = bucket;
    }
    out->histograms.emplace_back(std::move(name), std::move(snap));
  }
  return r.ExpectEnd();
}

std::string EncodeSpans(const std::vector<ProcessSpans>& groups) {
  storage::Writer w;
  w.WriteU32(kSpansMagic);
  w.WriteU32(kCodecVersion);
  w.WriteU64(groups.size());
  for (const ProcessSpans& group : groups) {
    w.WriteString(group.process_name);
    w.WriteU32(group.pid);
    w.WriteU64(group.spans.size());
    for (const Span& span : group.spans) {
      w.WriteU64(span.trace_id);
      w.WriteU64(span.span_id);
      w.WriteU64(span.parent_span);
      w.WriteString(span.name);
      w.WriteU64(std::bit_cast<uint64_t>(span.start_us));
      w.WriteU64(std::bit_cast<uint64_t>(span.dur_us));
      w.WriteU32(span.tid);
    }
  }
  SealCrc(&w);
  return w.buffer();
}

Status DecodeSpans(std::string_view bytes, std::vector<ProcessSpans>* out) {
  std::string_view body;
  GTPQ_RETURN_NOT_OK(CheckCrcAndStrip(bytes, "span dump", &body));
  storage::Reader r(body);
  GTPQ_RETURN_NOT_OK(CheckHeader(&r, kSpansMagic, "span dump"));
  uint64_t num_groups = 0;
  GTPQ_RETURN_NOT_OK(r.ReadU64(&num_groups));
  out->clear();
  for (uint64_t g = 0; g < num_groups; ++g) {
    ProcessSpans group;
    uint64_t count = 0;
    GTPQ_RETURN_NOT_OK(r.ReadString(&group.process_name));
    GTPQ_RETURN_NOT_OK(r.ReadU32(&group.pid));
    GTPQ_RETURN_NOT_OK(r.ReadU64(&count));
    for (uint64_t i = 0; i < count; ++i) {
      Span span;
      uint64_t start_bits = 0, dur_bits = 0;
      GTPQ_RETURN_NOT_OK(r.ReadU64(&span.trace_id));
      GTPQ_RETURN_NOT_OK(r.ReadU64(&span.span_id));
      GTPQ_RETURN_NOT_OK(r.ReadU64(&span.parent_span));
      GTPQ_RETURN_NOT_OK(r.ReadString(&span.name));
      GTPQ_RETURN_NOT_OK(r.ReadU64(&start_bits));
      GTPQ_RETURN_NOT_OK(r.ReadU64(&dur_bits));
      GTPQ_RETURN_NOT_OK(r.ReadU32(&span.tid));
      span.start_us = std::bit_cast<double>(start_bits);
      span.dur_us = std::bit_cast<double>(dur_bits);
      group.spans.push_back(std::move(span));
    }
    out->push_back(std::move(group));
  }
  return r.ExpectEnd();
}

namespace {

bool HasShardLabel(const std::string& name) {
  std::string base, labels;
  SplitSeriesName(name, &base, &labels);
  return labels.rfind("shard=", 0) == 0 ||
         labels.find(",shard=") != std::string::npos;
}

}  // namespace

std::string WithShardLabel(const std::string& name,
                           std::string_view label) {
  if (HasShardLabel(name)) return name;
  std::string base, labels;
  SplitSeriesName(name, &base, &labels);
  std::string inject = "shard=\"";
  inject += EscapeLabelValue(label);
  inject.push_back('"');
  if (labels.empty()) return base + "{" + inject + "}";
  return base + "{" + inject + "," + labels + "}";
}

MetricsSnapshot BuildFederatedSnapshot(
    const MetricsSnapshot& self,
    const std::vector<MemberSnapshot>& members) {
  MetricsSnapshot out;
  for (const auto& [name, value] : self.counters) {
    out.counters.emplace_back(WithShardLabel(name, "router"), value);
  }
  for (const auto& [name, value] : self.gauges) {
    out.gauges.emplace_back(WithShardLabel(name, "router"), value);
  }
  for (const auto& [name, snap] : self.histograms) {
    out.histograms.emplace_back(WithShardLabel(name, "router"), snap);
  }

  // Aggregates fold MEMBER series only: the unlabeled cluster series is
  // exactly the sum over the shard-labeled ones, which is the invariant
  // scrapers (and CI) check. Series already shard-labeled at a member
  // are left out of the fold — injecting would duplicate the label and
  // summing would double-count a router scraped as a member.
  std::map<std::string, uint64_t> agg_counters;
  std::map<std::string, Histogram::Snapshot> agg_histograms;
  for (const MemberSnapshot& member : members) {
    for (const auto& [name, value] : member.snapshot.counters) {
      out.counters.emplace_back(WithShardLabel(name, member.shard_label),
                                value);
      if (!HasShardLabel(name)) agg_counters[name] += value;
    }
    for (const auto& [name, value] : member.snapshot.gauges) {
      out.gauges.emplace_back(WithShardLabel(name, member.shard_label),
                              value);
    }
    for (const auto& [name, snap] : member.snapshot.histograms) {
      out.histograms.emplace_back(WithShardLabel(name, member.shard_label),
                                  snap);
      if (!HasShardLabel(name)) agg_histograms[name].Merge(snap);
    }
  }
  for (const auto& [name, value] : agg_counters) {
    out.counters.emplace_back(name, value);
  }
  for (auto& [name, snap] : agg_histograms) {
    out.histograms.emplace_back(name, std::move(snap));
  }
  return out;
}

}  // namespace obs
}  // namespace gtpq

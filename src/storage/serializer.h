#ifndef GTPQ_STORAGE_SERIALIZER_H_
#define GTPQ_STORAGE_SERIALIZER_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "reachability/index_view.h"

namespace gtpq {
namespace storage {

/// CRC-32 (IEEE 802.3 polynomial, the zlib flavour) over `len` bytes.
/// Chain blocks by threading the previous return value through `seed`.
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

/// Append-only little-endian byte sink for index payloads. Scalars are
/// written with explicit byte order; vectors of trivially copyable
/// element types are written raw (count + bytes), which ties the format
/// to little-endian hosts — the only kind the toolchain targets.
///
/// Two layout modes share this class:
///  * default — the dense layout gtpq-wire frames use (no padding);
///  * pod_align — the `.gtpqidx` v2 body layout: every POD vector's
///    element bytes start on an 8-byte boundary (zero pad after the
///    count prefix), so a reader mapping the file can hand out aligned
///    `const T*` views into it instead of memcpying. Alignment is
///    relative to the buffer start; the index framing keeps every
///    buffer at an 8-aligned file offset (see storage/index_io.h).
class Writer {
 public:
  void WriteU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void WriteU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) WriteU8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void WriteU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) WriteU8(static_cast<uint8_t>(v >> (8 * i)));
  }
  /// u32 length prefix + raw bytes.
  void WriteString(std::string_view s) {
    WriteU32(static_cast<uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }
  void WriteBytes(const void* data, size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }

  /// Switches to the aligned `.gtpqidx` v2 body layout (see class doc).
  void set_pod_align(bool on) { pod_align_ = on; }
  bool pod_align() const { return pod_align_; }

  /// Zero-pads the buffer to the next 8-byte boundary.
  void AlignTo8() { buf_.append((8 - buf_.size() % 8) % 8, '\0'); }

  /// u64 count [+ alignment pad in pod_align mode] + raw element bytes.
  template <typename T>
  void WritePodSpan(const T* data, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteU64(count);
    if (pod_align_) AlignTo8();
    if (count > 0) WriteBytes(data, count * sizeof(T));
  }

  template <typename T>
  void WritePodVec(const std::vector<T>& v) {
    WritePodSpan(v.data(), v.size());
  }

  template <typename T>
  void WritePodArray(const PodArray<T>& v) {
    WritePodSpan(v.data(), v.size());
  }

  /// u64 outer count + one WritePodVec per inner vector.
  template <typename T>
  void WriteNestedVec(const std::vector<std::vector<T>>& v) {
    WriteU64(v.size());
    for (const auto& inner : v) WritePodVec(inner);
  }

  template <typename T>
  void WriteNestedPodArray(const NestedPodArray<T>& v) {
    WriteU64(v.size());
    for (const auto& inner : v) WritePodArray(inner);
  }

  const std::string& buffer() const { return buf_; }

 private:
  std::string buf_;
  bool pod_align_ = false;
};

/// Bounds-checked reader over a byte span. Every accessor returns a
/// Status so truncated or short payloads surface as clean errors, never
/// out-of-bounds reads. Every length prefix is validated against the
/// remaining span BEFORE any allocation is sized from it, so a corrupt
/// count can never trigger a multi-GB resize or an out-of-bounds map.
///
/// Mirrors the Writer's two layout modes (`set_pod_align`), and adds an
/// orthogonal `set_zero_copy` mode for mmap-backed loads: in zero-copy
/// mode ReadPodArray hands out borrowed views straight into `data`
/// (which must then outlive every view) instead of copying; misaligned
/// element spans fall back to owned copies, so zero-copy is always a
/// safe superset.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }

  void set_pod_align(bool on) { pod_align_ = on; }
  void set_zero_copy(bool on) { zero_copy_ = on; }

  /// Skips the zero pad up to the next 8-byte boundary.
  Status AlignTo8() {
    const size_t pad = (8 - pos_ % 8) % 8;
    if (remaining() < pad) return Truncated("alignment padding");
    pos_ += pad;
    return Status::OK();
  }

  Status ReadU8(uint8_t* out) {
    if (remaining() < 1) return Truncated("u8");
    *out = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }
  Status ReadU32(uint32_t* out) {
    if (remaining() < 4) return Truncated("u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }
  Status ReadU64(uint64_t* out) {
    if (remaining() < 8) return Truncated("u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *out = v;
    return Status::OK();
  }
  Status ReadString(std::string* out) {
    uint32_t len = 0;
    GTPQ_RETURN_NOT_OK(ReadU32(&len));
    if (remaining() < len) return Truncated("string body");
    out->assign(data_.data() + pos_, len);
    pos_ += len;
    return Status::OK();
  }

  template <typename T>
  Status ReadPodVec(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t count = 0;
    GTPQ_RETURN_NOT_OK(ReadPodCount<T>(&count));
    out->resize(static_cast<size_t>(count));
    if (count > 0) {
      std::memcpy(out->data(), data_.data() + pos_,
                  static_cast<size_t>(count) * sizeof(T));
      pos_ += static_cast<size_t>(count) * sizeof(T);
    }
    return Status::OK();
  }

  /// PodArray counterpart of ReadPodVec: borrows in zero-copy mode,
  /// copies otherwise.
  template <typename T>
  Status ReadPodArray(PodArray<T>* out) {
    uint64_t count = 0;
    GTPQ_RETURN_NOT_OK(ReadPodCount<T>(&count));
    const char* base = data_.data() + pos_;
    if (zero_copy_ &&
        reinterpret_cast<uintptr_t>(base) % alignof(T) == 0) {
      *out = PodArray<T>::Borrowed(reinterpret_cast<const T*>(base),
                                   static_cast<size_t>(count));
      pos_ += static_cast<size_t>(count) * sizeof(T);
      return Status::OK();
    }
    std::vector<T> owned(static_cast<size_t>(count));
    if (count > 0) {
      std::memcpy(owned.data(), base,
                  static_cast<size_t>(count) * sizeof(T));
      pos_ += static_cast<size_t>(count) * sizeof(T);
    }
    *out = PodArray<T>(std::move(owned));
    return Status::OK();
  }

  template <typename T>
  Status ReadNestedVec(std::vector<std::vector<T>>* out) {
    uint64_t count = 0;
    GTPQ_RETURN_NOT_OK(ReadU64(&count));
    // Each inner vector costs at least its 8-byte count prefix.
    if (count > remaining() / 8) return Truncated("nested vector");
    out->resize(static_cast<size_t>(count));
    for (auto& inner : *out) GTPQ_RETURN_NOT_OK(ReadPodVec(&inner));
    return Status::OK();
  }

  template <typename T>
  Status ReadNestedPodArray(NestedPodArray<T>* out) {
    uint64_t count = 0;
    GTPQ_RETURN_NOT_OK(ReadU64(&count));
    if (count > remaining() / 8) return Truncated("nested vector");
    std::vector<PodArray<T>> rows(static_cast<size_t>(count));
    for (auto& row : rows) GTPQ_RETURN_NOT_OK(ReadPodArray(&row));
    *out = NestedPodArray<T>(std::move(rows));
    return Status::OK();
  }

  /// Fails when payload bytes remain unconsumed (corrupt or newer body).
  Status ExpectEnd() const {
    if (remaining() != 0) {
      return Status::ParseError("index payload has " +
                                std::to_string(remaining()) +
                                " trailing bytes");
    }
    return Status::OK();
  }

 private:
  static Status Truncated(const char* what) {
    return Status::ParseError(std::string("index payload truncated reading ") +
                              what);
  }

  /// Shared POD-vector prologue: count prefix, optional alignment pad,
  /// and the element-bytes-fit-the-remaining-span bound.
  template <typename T>
  Status ReadPodCount(uint64_t* count) {
    static_assert(std::is_trivially_copyable_v<T>);
    GTPQ_RETURN_NOT_OK(ReadU64(count));
    if (pod_align_) GTPQ_RETURN_NOT_OK(AlignTo8());
    if (*count > remaining() / sizeof(T)) return Truncated("vector body");
    return Status::OK();
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool pod_align_ = false;
  bool zero_copy_ = false;
};

// --- Field-list codecs -------------------------------------------------
//
// Every backend body is a flat sequence of the same three field shapes:
// u64 scalars, POD vectors, and nested POD vectors. WriteFields /
// ReadFields serialize such a sequence in declaration order, so a
// backend's SaveBody/LoadBody reduce to one mirrored field list instead
// of hand-repeated WritePodVec/ReadPodVec boilerplate. Overload
// resolution picks the nested-vector codec over the POD one (it is more
// specialized), and the u64 overload absorbs size_t counters.

inline void WriteField(Writer* w, uint64_t v) { w->WriteU64(v); }
template <typename T>
void WriteField(Writer* w, const std::vector<T>& v) {
  w->WritePodVec(v);
}
template <typename T>
void WriteField(Writer* w, const std::vector<std::vector<T>>& v) {
  w->WriteNestedVec(v);
}
template <typename T>
void WriteField(Writer* w, const PodArray<T>& v) {
  w->WritePodArray(v);
}
template <typename T>
void WriteField(Writer* w, const NestedPodArray<T>& v) {
  w->WriteNestedPodArray(v);
}

/// Writes each field in order.
template <typename... Fields>
void WriteFields(Writer* w, const Fields&... fields) {
  (WriteField(w, fields), ...);
}

inline Status ReadField(Reader* r, uint64_t* v) { return r->ReadU64(v); }
/// size_t counters read through a u64 on platforms where size_t is a
/// distinct type (e.g. unsigned long vs unsigned long long on LP64
/// macOS); SFINAE keeps this overload out where they coincide.
template <typename T,
          typename = std::enable_if_t<std::is_same_v<T, size_t> &&
                                      !std::is_same_v<size_t, uint64_t>>>
Status ReadField(Reader* r, T* v) {
  uint64_t raw = 0;
  GTPQ_RETURN_NOT_OK(r->ReadU64(&raw));
  *v = static_cast<size_t>(raw);
  return Status::OK();
}
template <typename T>
Status ReadField(Reader* r, std::vector<T>* v) {
  return r->ReadPodVec(v);
}
template <typename T>
Status ReadField(Reader* r, std::vector<std::vector<T>>* v) {
  return r->ReadNestedVec(v);
}
template <typename T>
Status ReadField(Reader* r, PodArray<T>* v) {
  return r->ReadPodArray(v);
}
template <typename T>
Status ReadField(Reader* r, NestedPodArray<T>* v) {
  return r->ReadNestedPodArray(v);
}

/// Reads each field in order, stopping at (and returning) the first
/// failure.
template <typename... Fields>
Status ReadFields(Reader* r, Fields*... fields) {
  Status st;
  // Left-to-right &&-fold mirrors WriteFields' order and short-circuits
  // on the first parse error.
  static_cast<void>(((st = ReadField(r, fields)).ok() && ...));
  return st;
}

}  // namespace storage
}  // namespace gtpq

#endif  // GTPQ_STORAGE_SERIALIZER_H_

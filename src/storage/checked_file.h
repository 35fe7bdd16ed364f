#ifndef GTPQ_STORAGE_CHECKED_FILE_H_
#define GTPQ_STORAGE_CHECKED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "common/status.h"

namespace gtpq {
namespace storage {

/// The prologue every persisted gtpq file (".gtpqidx", ".gtpqmap")
/// starts with, all scalars little-endian:
///
///   [0..8)    magic
///   [8..12)   u32 format version
///   [12..16)  u32 CRC-32 over every byte from offset 16 to EOF
///   [16..)    body
///
/// The body starts on an 8-byte file offset, so a pod_align body
/// (storage/serializer.h) keeps its alignment on disk and in a mapping.
struct FileFormat {
  std::string_view magic;  // 8 bytes
  uint32_t version = 0;
  std::string_view noun;  // names the file kind in errors: "index"
};

inline constexpr size_t kPrologueBytes = 16;

/// Writes the prologue and the concatenated `body` parts to `path`
/// through ReplaceFileAtomically (common/atomic_file.h), so a killed
/// writer leaves the old file in place.
Status WriteChecksummedFile(const std::string& path, const FileFormat& format,
                            std::initializer_list<std::string_view> body);

/// Validates a whole file's bytes against `format` and returns the body.
/// ParseError for a short file, wrong magic or checksum mismatch
/// (truncation, bit corruption, trailing bytes); FailedPrecondition for
/// another format version.
Result<std::string_view> CheckPrologue(std::string_view bytes,
                                       const FileFormat& format,
                                       const std::string& path);

/// Reads `path` whole into `bytes` and validates it (CheckPrologue);
/// NotFound when the file cannot be opened.
Result<std::string_view> ReadChecksummedFile(const std::string& path,
                                             const FileFormat& format,
                                             std::string* bytes);

/// True when `path` can be read and starts with `magic`. A cheap sniff:
/// nothing past the magic is checked.
bool HasMagic(const std::string& path, std::string_view magic);

}  // namespace storage
}  // namespace gtpq

#endif  // GTPQ_STORAGE_CHECKED_FILE_H_

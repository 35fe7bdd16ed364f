#include "storage/checked_file.h"

#include <fstream>
#include <iterator>
#include <vector>

#include "common/atomic_file.h"
#include "storage/serializer.h"

namespace gtpq {
namespace storage {

Status WriteChecksummedFile(const std::string& path, const FileFormat& format,
                            std::initializer_list<std::string_view> body) {
  uint32_t crc = 0;
  for (const std::string_view part : body) {
    crc = Crc32(part.data(), part.size(), crc);
  }
  Writer prologue;
  prologue.WriteBytes(format.magic.data(), format.magic.size());
  prologue.WriteU32(format.version);
  prologue.WriteU32(crc);
  std::vector<std::string_view> parts{prologue.buffer()};
  parts.insert(parts.end(), body.begin(), body.end());
  return ReplaceFileAtomically(path, format.noun, parts);
}

Result<std::string_view> CheckPrologue(std::string_view bytes,
                                       const FileFormat& format,
                                       const std::string& path) {
  const std::string noun(format.noun);
  if (bytes.size() < kPrologueBytes) {
    return Status::ParseError(noun + " file too short (" +
                              std::to_string(bytes.size()) +
                              " bytes): " + path);
  }
  if (bytes.substr(0, format.magic.size()) != format.magic) {
    return Status::ParseError("bad magic: not a gtpq " + noun +
                              " file: " + path);
  }
  Reader prologue(bytes.substr(format.magic.size(), 8));
  uint32_t version = 0, stored_crc = 0;
  GTPQ_RETURN_NOT_OK(prologue.ReadU32(&version));
  GTPQ_RETURN_NOT_OK(prologue.ReadU32(&stored_crc));
  if (version != format.version) {
    return Status::FailedPrecondition(
        noun + " format version mismatch: file has v" +
        std::to_string(version) + ", this build reads v" +
        std::to_string(format.version) + ": " + path);
  }
  const std::string_view body = bytes.substr(kPrologueBytes);
  if (Crc32(body.data(), body.size()) != stored_crc) {
    return Status::ParseError(
        noun + " checksum mismatch (truncated or corrupted file): " + path);
  }
  return body;
}

Result<std::string_view> ReadChecksummedFile(const std::string& path,
                                             const FileFormat& format,
                                             std::string* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open " + std::string(format.noun) +
                            " file: " + path);
  }
  bytes->assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  if (in.bad()) return Status::Internal("read failed: " + path);
  return CheckPrologue(*bytes, format, path);
}

bool HasMagic(const std::string& path, std::string_view magic) {
  std::ifstream in(path, std::ios::binary);
  std::string head(magic.size(), '\0');
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  return in.gcount() == static_cast<std::streamsize>(magic.size()) &&
         head == magic;
}

}  // namespace storage
}  // namespace gtpq

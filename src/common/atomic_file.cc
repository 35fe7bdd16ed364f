#include "common/atomic_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace gtpq {

Status ReplaceFileAtomically(const std::string& path, std::string_view noun,
                             std::span<const std::string_view> parts) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::NotFound("cannot create " + std::string(noun) +
                            " file: " + tmp);
  }
  for (const std::string_view part : parts) {
    out.write(part.data(), static_cast<std::streamsize>(part.size()));
  }
  out.close();
  if (!out) {
    std::remove(tmp.c_str());
    return Status::Internal("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string reason = std::strerror(errno);
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " over " + path + ": " +
                            reason);
  }
  return Status::OK();
}

}  // namespace gtpq

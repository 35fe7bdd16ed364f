#ifndef GTPQ_STORAGE_MMAP_FILE_H_
#define GTPQ_STORAGE_MMAP_FILE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"

namespace gtpq {
namespace storage {

/// RAII read-only shared mapping of a whole file (`MAP_SHARED |
/// PROT_READ`). Because the mapping is shared and never written, N
/// processes mapping the same index file reference one set of physical
/// pages, page-faulted on demand — the substrate of zero-copy index
/// serving. The mapping stays valid for the lifetime of this object
/// even if the path is later renamed over (loads pin the inode, which
/// is what makes a save's write-temp + rename (WriteChecksummedFile)
/// safe under live readers).
class MmapFile {
 public:
  /// Maps `path` read-only. NotFound when the file cannot be opened,
  /// Internal on mmap failure, Unimplemented off POSIX.
  static Result<std::shared_ptr<MmapFile>> Map(const std::string& path);

  ~MmapFile();
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  std::string_view bytes() const {
    return std::string_view(static_cast<const char*>(addr_), size_);
  }
  const std::string& path() const { return path_; }

 private:
  MmapFile(std::string path, void* addr, size_t size)
      : path_(std::move(path)), addr_(addr), size_(size) {}

  std::string path_;
  void* addr_ = nullptr;
  size_t size_ = 0;
};

}  // namespace storage
}  // namespace gtpq

#endif  // GTPQ_STORAGE_MMAP_FILE_H_

#ifndef GTPQ_COMMON_ATOMIC_FILE_H_
#define GTPQ_COMMON_ATOMIC_FILE_H_

#include <span>
#include <string>
#include <string_view>

#include "common/status.h"

namespace gtpq {

/// Writes the concatenated `parts` to "<path>.tmp", closes it, then
/// renames it over `path`. A process killed at any point leaves `path`
/// as it was (the old file, or none), and readers that opened or mapped
/// the old file keep its inode. There is no fsync: after a power loss
/// or kernel crash the file may hold neither version. One writer per
/// path at a time. `noun` names the file kind in errors ("index").
Status ReplaceFileAtomically(const std::string& path, std::string_view noun,
                             std::span<const std::string_view> parts);

}  // namespace gtpq

#endif  // GTPQ_COMMON_ATOMIC_FILE_H_

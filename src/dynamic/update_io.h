#ifndef GTPQ_DYNAMIC_UPDATE_IO_H_
#define GTPQ_DYNAMIC_UPDATE_IO_H_

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "dynamic/graph_delta.h"

namespace gtpq {

/// Serializes update batches to the plain-text "gtpq-updates v1"
/// format consumed by `gteactl apply` and replayable against any
/// snapshot chain:
///
///   gtpq-updates v1
///   batch
///   addnode <label>
///   addedge <from> <to>
///   rmedge <from> <to>
///   rmnode <id>
///   batch
///   ...
///
/// Each `batch` line opens a new atomic UpdateBatch; ops before the
/// first `batch` line belong to an implicit first batch. Blank lines
/// and '#' comments are ignored.
Status SaveUpdateBatches(std::span<const UpdateBatch> batches,
                         std::ostream* out);

/// Parses the format above. Malformed lines are rejected with the line
/// number; semantic validation (absent edges, removed vertices) happens
/// later, when the batches are applied to a delta.
Result<std::vector<UpdateBatch>> LoadUpdateBatches(std::istream* in);
Result<std::vector<UpdateBatch>> LoadUpdateBatchesFromFile(
    const std::string& path);

}  // namespace gtpq

#endif  // GTPQ_DYNAMIC_UPDATE_IO_H_

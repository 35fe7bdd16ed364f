#include "dynamic/update_io.h"

#include <cstdlib>
#include <fstream>
#include <limits>
#include <ostream>

#include "common/string_util.h"

namespace gtpq {

namespace {

Status Malformed(size_t line_no, const std::string& line) {
  return Status::ParseError("malformed update line " +
                            std::to_string(line_no) + ": " + line);
}

bool ParseU32(const std::string& text, NodeId* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' ||
      v > std::numeric_limits<NodeId>::max()) {
    return false;
  }
  *out = static_cast<NodeId>(v);
  return true;
}

bool ParseI64(const std::string& text, int64_t* out) {
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

Status SaveUpdateBatches(std::span<const UpdateBatch> batches,
                         std::ostream* out) {
  (*out) << "gtpq-updates v1\n";
  for (const UpdateBatch& batch : batches) {
    (*out) << "batch\n";
    for (int64_t label : batch.add_nodes) {
      (*out) << "addnode " << label << "\n";
    }
    for (const EdgeRef& e : batch.add_edges) {
      (*out) << "addedge " << e.from << " " << e.to << "\n";
    }
    for (const EdgeRef& e : batch.remove_edges) {
      (*out) << "rmedge " << e.from << " " << e.to << "\n";
    }
    for (NodeId v : batch.remove_nodes) {
      (*out) << "rmnode " << v << "\n";
    }
  }
  if (!out->good()) return Status::Internal("stream write failed");
  return Status::OK();
}

Result<std::vector<UpdateBatch>> LoadUpdateBatches(std::istream* in) {
  std::string line;
  if (!std::getline(*in, line) ||
      StripWhitespace(line) != "gtpq-updates v1") {
    return Status::ParseError("missing 'gtpq-updates v1' header");
  }
  std::vector<UpdateBatch> batches;
  bool open_batch = false;
  size_t line_no = 1;
  auto current = [&]() -> UpdateBatch& {
    if (!open_batch) {
      batches.emplace_back();
      open_batch = true;
    }
    return batches.back();
  };
  while (std::getline(*in, line)) {
    ++line_no;
    const std::string stripped(StripWhitespace(line));
    if (stripped.empty() || stripped[0] == '#') continue;
    const std::vector<std::string> parts = Split(stripped, ' ');
    if (parts[0] == "batch") {
      if (parts.size() != 1) return Malformed(line_no, line);
      batches.emplace_back();
      open_batch = true;
      continue;
    }
    if (parts[0] == "addnode") {
      int64_t label = 0;
      if (parts.size() != 2 || !ParseI64(parts[1], &label)) {
        return Malformed(line_no, line);
      }
      current().add_nodes.push_back(label);
      continue;
    }
    if (parts[0] == "addedge" || parts[0] == "rmedge") {
      EdgeRef e;
      if (parts.size() != 3 || !ParseU32(parts[1], &e.from) ||
          !ParseU32(parts[2], &e.to)) {
        return Malformed(line_no, line);
      }
      auto& list = parts[0] == "addedge" ? current().add_edges
                                         : current().remove_edges;
      list.push_back(e);
      continue;
    }
    if (parts[0] == "rmnode") {
      NodeId v = 0;
      if (parts.size() != 2 || !ParseU32(parts[1], &v)) {
        return Malformed(line_no, line);
      }
      current().remove_nodes.push_back(v);
      continue;
    }
    return Malformed(line_no, line);
  }
  return batches;
}

Result<std::vector<UpdateBatch>> LoadUpdateBatchesFromFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open update file: " + path);
  return LoadUpdateBatches(&in);
}

}  // namespace gtpq

#include "core/eval_types.h"

#include <algorithm>

namespace gtpq {

void QueryResult::Normalize() {
  std::sort(tuples.begin(), tuples.end());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
}

const char* StageName(Stage stage) {
  static constexpr const char* kNames[kNumStages] = {
      "match",    "prune_down",     "prime",
      "prune_up", "matching_graph", "enumerate"};
  return kNames[static_cast<size_t>(stage)];
}

EngineStats& EngineStats::operator+=(const EngineStats& other) {
  input_nodes += other.input_nodes;
  index_lookups += other.index_lookups;
  intermediate_size += other.intermediate_size;
  join_ops += other.join_ops;
  for (size_t s = 0; s < kNumStages; ++s) stage_ms[s] += other.stage_ms[s];
  total_ms += other.total_ms;
  return *this;
}

std::string QueryResult::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i > 0) out += ", ";
    out += "(";
    for (size_t j = 0; j < tuples[i].size(); ++j) {
      if (j > 0) out += ",";
      // Not "v" + to_string: GCC 12 flags that as -Wrestrict at -O2.
      out += 'v';
      out += std::to_string(tuples[i][j]);
    }
    out += ")";
  }
  out += "]";
  return out;
}

}  // namespace gtpq

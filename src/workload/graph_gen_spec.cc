#include "workload/graph_gen_spec.h"

#include <string_view>
#include <vector>

#include "common/string_util.h"
#include "graph/generators.h"
#include "workload/xmark.h"

namespace gtpq {
namespace workload {

namespace {

/// Reads "<nodes>[,<seed>[,<deg>]]" into a generator's options: the
/// node count is a NodeId-range integer >= 1, the seed any u64, and the
/// degree (only where the generator takes one) finite and >= 0.
template <typename Options>
bool ParseShape(const std::vector<std::string>& fields, Options* o) {
  constexpr bool kHasDegree = requires(Options& opts) { opts.avg_degree; };
  if (fields.size() > (kHasDegree ? 3u : 2u)) return false;
  uint32_t nodes = 0;
  if (!ParseU32(fields[0], &nodes) || nodes < 1) return false;
  o->num_nodes = nodes;
  if (fields.size() > 1 && !ParseU64(fields[1], &o->seed)) return false;
  if constexpr (kHasDegree) {
    if (fields.size() > 2 &&
        (!ParseDouble(fields[2], &o->avg_degree) || o->avg_degree < 0)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<DataGraph> GenerateGraphFromSpec(const std::string& spec) {
  const size_t colon = spec.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("generator spec needs params: " + spec);
  }
  const std::string kind = spec.substr(0, colon);
  // Empty fields are kept, so "dag:5,,2" is refused rather than read as
  // "dag:5,2".
  const std::vector<std::string> fields =
      Split(std::string_view(spec).substr(colon + 1), ',',
            /*skip_empty=*/false);
  const Status malformed =
      Status::InvalidArgument("malformed generator params: " + spec);
  if (kind == "xmark") {
    XmarkOptions o;
    if (fields.size() != 1 || !ParseDouble(fields[0], &o.scale) ||
        o.scale <= 0) {
      return malformed;
    }
    return GenerateXmark(o);
  }
  if (kind == "dag") {
    RandomDagOptions o;
    if (!ParseShape(fields, &o)) return malformed;
    return RandomDag(o);
  }
  if (kind == "digraph") {
    RandomDigraphOptions o;
    if (!ParseShape(fields, &o)) return malformed;
    return RandomDigraph(o);
  }
  if (kind == "tree") {
    RandomTreeOptions o;
    if (!ParseShape(fields, &o)) return malformed;
    return RandomTreeWithCrossEdges(o);
  }
  return Status::InvalidArgument("unknown generator kind '" + kind +
                                 "' in spec: " + spec);
}

}  // namespace workload
}  // namespace gtpq

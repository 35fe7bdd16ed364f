#ifndef GTPQ_WORKLOAD_GRAPH_GEN_SPEC_H_
#define GTPQ_WORKLOAD_GRAPH_GEN_SPEC_H_

#include <string>

#include "common/status.h"
#include "graph/data_graph.h"

namespace gtpq {
namespace workload {

/// Deterministic graph-generator specs, shared by every tool that must
/// REPRODUCE a graph from a short string — `gteactl build/verify/serve`
/// and the network load generator (which rebuilds the serving graph
/// client-side for its differential baseline). Two processes given the
/// same spec always construct the identical graph:
///
///   xmark:<scale>                    workload XMark tree
///   dag:<nodes>[,<seed>[,<deg>]]     random DAG
///   digraph:<nodes>[,<seed>[,<deg>]] random digraph (cycles allowed)
///   tree:<nodes>[,<seed>]            random tree + cross edges
///
/// <nodes> is an integer in [1, 2^32 - 1], <seed> a u64, <deg> a finite
/// number >= 0 and <scale> a finite number > 0. A spec with junk in a
/// field, or with a field its kind does not take, is InvalidArgument,
/// before anything is allocated.
Result<DataGraph> GenerateGraphFromSpec(const std::string& spec);

}  // namespace workload
}  // namespace gtpq

#endif  // GTPQ_WORKLOAD_GRAPH_GEN_SPEC_H_

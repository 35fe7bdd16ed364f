#ifndef GTPQ_GRAPH_GRAPH_IO_H_
#define GTPQ_GRAPH_GRAPH_IO_H_

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "graph/data_graph.h"

namespace gtpq {

/// Serializes a data graph to the plain-text "gtpq-graph v2" format:
///
///   gtpq-graph v2
///   nodes <count>
///   node <id> <label> [<attr>=<value> ...]
///   edge <from> <to> [tree]
///   end
///
/// `node` lines are only emitted for nodes with a nonzero label or extra
/// attributes. String attribute values are quoted with '"' and must not
/// contain whitespace. The closing `end` line is what tells a whole file
/// from a cut one. SaveDataGraphToFile replaces `path` atomically
/// (common/atomic_file.h).
Status SaveDataGraph(const DataGraph& g, std::ostream* out);
Status SaveDataGraphToFile(const DataGraph& g, const std::string& path);

/// Parses the format above. The returned graph is finalized. Every
/// malformed line — v1 header, junk or out-of-range number, a missing
/// `end`, anything after it — is a ParseError naming its line number.
Result<DataGraph> LoadDataGraph(std::istream* in);
Result<DataGraph> LoadDataGraphFromFile(const std::string& path);

}  // namespace gtpq

#endif  // GTPQ_GRAPH_GRAPH_IO_H_

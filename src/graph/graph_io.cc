#include "graph/graph_io.h"

#include <fstream>
#include <ostream>
#include <sstream>

#include "common/atomic_file.h"
#include "common/string_util.h"

namespace gtpq {

namespace {
constexpr std::string_view kHeader = "gtpq-graph v2";

std::string EncodeValue(const AttrValue& v) {
  if (v.is_string()) return "\"" + v.as_string() + "\"";
  return v.ToString();
}

bool DecodeValue(std::string_view text, AttrValue* out) {
  if (text.size() >= 2 && text.front() == '"' && text.back() == '"') {
    *out = AttrValue(std::string(text.substr(1, text.size() - 2)));
    return true;
  }
  return ParseNumericAttrValue(text, out);
}
}  // namespace

Status SaveDataGraph(const DataGraph& g, std::ostream* out) {
  (*out) << kHeader << "\n";
  (*out) << "nodes " << g.NumNodes() << "\n";
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const auto& tuple = g.Attrs(v);
    if (g.LabelOf(v) == 0 && tuple.empty()) continue;
    (*out) << "node " << v << " " << g.LabelOf(v);
    for (const auto& b : tuple.bindings()) {
      (*out) << " " << g.attr_names().NameOf(b.attr) << "="
             << EncodeValue(b.value);
    }
    (*out) << "\n";
  }
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (NodeId w : g.OutNeighbors(v)) {
      (*out) << "edge " << v << " " << w;
      if (g.IsTreeEdge(v, w)) (*out) << " tree";
      (*out) << "\n";
    }
  }
  (*out) << "end\n";
  if (!out->good()) return Status::Internal("stream write failed");
  return Status::OK();
}

Status SaveDataGraphToFile(const DataGraph& g, const std::string& path) {
  std::ostringstream text;
  GTPQ_RETURN_NOT_OK(SaveDataGraph(g, &text));
  const std::string bytes = text.str();
  const std::string_view part = bytes;
  return ReplaceFileAtomically(path, "graph", {&part, 1});
}

Result<DataGraph> LoadDataGraph(std::istream* in) {
  std::string line;
  size_t line_no = 1;
  const auto fail = [&line_no](const std::string& what) {
    return Status::ParseError(what + " at line " + std::to_string(line_no));
  };
  if (!std::getline(*in, line) || StripWhitespace(line) != kHeader) {
    return fail(StripWhitespace(line) == "gtpq-graph v1"
                    ? "'gtpq-graph v1' is no longer read (v2 ends with an "
                      "'end' line)"
                    : "missing 'gtpq-graph v2' header");
  }
  ++line_no;
  NodeId n = 0;
  if (!std::getline(*in, line)) return fail("missing 'nodes' line");
  const auto head = Split(line, ' ');
  if (head.size() != 2 || head[0] != "nodes" || !ParseU32(head[1], &n)) {
    return fail("malformed 'nodes' line");
  }
  DataGraph g(n);

  bool ended = false;
  while (std::getline(*in, line)) {
    ++line_no;
    if (ended) return fail("content after 'end'");
    const auto stripped = StripWhitespace(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const auto parts = Split(stripped, ' ');
    if (parts[0] == "end") {
      if (parts.size() != 1) return fail("malformed 'end' line");
      ended = true;
    } else if (parts[0] == "node") {
      NodeId id = 0;
      int64_t label = 0;
      if (parts.size() < 3 || !ParseU32(parts[1], &id) ||
          !ParseI64(parts[2], &label)) {
        return fail("malformed node line");
      }
      if (id >= n) return fail("node id out of range");
      g.SetLabel(id, label);
      for (size_t i = 3; i < parts.size(); ++i) {
        const auto eq = parts[i].find('=');
        AttrValue value;
        if (eq == std::string::npos ||
            !DecodeValue(std::string_view(parts[i]).substr(eq + 1),
                         &value)) {
          return fail("malformed attribute");
        }
        g.SetAttr(id, parts[i].substr(0, eq), std::move(value));
      }
    } else if (parts[0] == "edge") {
      NodeId from = 0, to = 0;
      const bool tree = parts.size() == 4 && parts[3] == "tree";
      if ((parts.size() != 3 && !tree) || !ParseU32(parts[1], &from) ||
          !ParseU32(parts[2], &to)) {
        return fail("malformed edge line");
      }
      if (from >= n || to >= n) return fail("edge endpoint out of range");
      g.AddEdge(from, to);
      if (tree) g.SetTreeParent(to, from);
    } else {
      return fail("unknown directive '" + parts[0] + "'");
    }
  }
  if (!ended) return fail("missing 'end' line (truncated file?)");
  g.Finalize();
  return g;
}

Result<DataGraph> LoadDataGraphFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  return LoadDataGraph(&in);
}

}  // namespace gtpq

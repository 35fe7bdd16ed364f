#include "dynamic/graph_delta.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"

namespace gtpq {

namespace {

// Built by appends: `"(" + std::to_string(...)` trips GCC 12's
// -Wrestrict false positive (PR105651) under -O2, and CI promotes
// warnings to errors.
std::string EdgeName(NodeId from, NodeId to) {
  std::string out = "(";
  out += std::to_string(from);
  out += ", ";
  out += std::to_string(to);
  out += ")";
  return out;
}

}  // namespace

std::span<const NodeId> GraphDelta::AddedOut(NodeId v) const {
  auto it = added_out_.find(v);
  if (it == added_out_.end()) return {};
  return it->second;
}

bool GraphDelta::HasEdgeInView(const Digraph& base, NodeId from,
                               NodeId to) const {
  if (from < base_nodes_ && to < base_nodes_ && base.HasEdge(from, to) &&
      !EdgeRemoved(from, to)) {
    return true;
  }
  const std::span<const NodeId> added = AddedOut(from);
  return std::binary_search(added.begin(), added.end(), to);
}

void GraphDelta::InsertAddedEdge(NodeId from, NodeId to) {
  auto& out = added_out_[from];
  out.insert(std::lower_bound(out.begin(), out.end(), to), to);
  auto& in = added_in_[to];
  in.insert(std::lower_bound(in.begin(), in.end(), from), from);
  ++num_added_edges_;
}

void GraphDelta::EraseAddedEdge(NodeId from, NodeId to) {
  auto out_it = added_out_.find(from);
  GTPQ_DCHECK(out_it != added_out_.end());
  auto& out = out_it->second;
  out.erase(std::lower_bound(out.begin(), out.end(), to));
  if (out.empty()) added_out_.erase(out_it);
  auto in_it = added_in_.find(to);
  auto& in = in_it->second;
  in.erase(std::lower_bound(in.begin(), in.end(), from));
  if (in.empty()) added_in_.erase(in_it);
  --num_added_edges_;
}

Status GraphDelta::Apply(const Digraph& base, const UpdateBatch& batch) {
  // Validate-and-fold into a scratch copy so a mid-batch rejection
  // leaves this delta exactly as it was (batches are atomic).
  GraphDelta scratch = *this;
  GTPQ_RETURN_NOT_OK(scratch.ApplyInPlace(base, batch));
  *this = std::move(scratch);
  return Status::OK();
}

Status GraphDelta::ApplyInPlace(const Digraph& base,
                                const UpdateBatch& batch) {
  GTPQ_CHECK(base.finalized());
  if (base.NumNodes() != base_nodes_) {
    return Status::InvalidArgument(
        "update batch applied against the wrong base graph: delta was "
        "created over " +
        std::to_string(base_nodes_) + " nodes, graph has " +
        std::to_string(base.NumNodes()));
  }

  for (int64_t label : batch.add_nodes) added_labels_.push_back(label);
  const size_t n = NumNodes();

  for (const EdgeRef& e : batch.add_edges) {
    if (e.from >= n || e.to >= n) {
      return Status::OutOfRange("add_edge endpoint out of range: " +
                                EdgeName(e.from, e.to));
    }
    if (NodeRemoved(e.from) || NodeRemoved(e.to)) {
      return Status::FailedPrecondition(
          "add_edge touches a removed vertex: " + EdgeName(e.from, e.to));
    }
    if (HasEdgeInView(base, e.from, e.to)) {
      return Status::AlreadyExists("edge already present: " +
                                   EdgeName(e.from, e.to));
    }
    if (e.from < base_nodes_ && e.to < base_nodes_ &&
        base.HasEdge(e.from, e.to)) {
      // Re-adding a removed base edge resurrects it instead of growing
      // the added-edge overlay.
      removed_edge_set_.erase(EdgeKey(e.from, e.to));
    } else {
      InsertAddedEdge(e.from, e.to);
    }
  }

  for (const EdgeRef& e : batch.remove_edges) {
    if (e.from >= n || e.to >= n) {
      return Status::OutOfRange("remove_edge endpoint out of range: " +
                                EdgeName(e.from, e.to));
    }
    if (!HasEdgeInView(base, e.from, e.to)) {
      return Status::NotFound("remove_edge of absent edge: " +
                              EdgeName(e.from, e.to));
    }
    const std::span<const NodeId> added = AddedOut(e.from);
    if (std::binary_search(added.begin(), added.end(), e.to)) {
      EraseAddedEdge(e.from, e.to);
    } else {
      removed_edge_set_.insert(EdgeKey(e.from, e.to));
    }
  }

  for (NodeId v : batch.remove_nodes) {
    if (v >= n) {
      return Status::OutOfRange("remove_node id out of range: " +
                                std::to_string(v));
    }
    if (NodeRemoved(v)) {
      return Status::FailedPrecondition("vertex already removed: " +
                                        std::to_string(v));
    }
    if (v < base_nodes_) {
      for (NodeId w : base.OutNeighbors(v)) {
        removed_edge_set_.insert(EdgeKey(v, w));
      }
      for (NodeId w : base.InNeighbors(v)) {
        removed_edge_set_.insert(EdgeKey(w, v));
      }
    }
    // Detach surviving overlay edges (copy the lists: erasing mutates).
    const std::span<const NodeId> out_span = AddedOut(v);
    const std::vector<NodeId> outs(out_span.begin(), out_span.end());
    for (NodeId w : outs) EraseAddedEdge(v, w);
    if (auto it = added_in_.find(v); it != added_in_.end()) {
      const std::vector<NodeId> ins = it->second;
      for (NodeId u : ins) EraseAddedEdge(u, v);
    }
    removed_node_set_.insert(v);
  }

  ++version_;
  return Status::OK();
}

Digraph GraphDelta::MaterializeDigraph(const Digraph& base) const {
  GTPQ_CHECK(base.finalized());
  GTPQ_CHECK(base.NumNodes() == base_nodes_);
  Digraph out(NumNodes());
  for (NodeId v = 0; v < base_nodes_; ++v) {
    for (NodeId w : base.OutNeighbors(v)) {
      if (!EdgeRemoved(v, w)) out.AddEdge(v, w);
    }
  }
  for (const auto& [v, targets] : added_out_) {
    for (NodeId w : targets) out.AddEdge(v, w);
  }
  out.Finalize();
  return out;
}

DataGraph GraphDelta::MaterializeDataGraph(const DataGraph& base) const {
  GTPQ_CHECK(base.graph().NumNodes() == base_nodes_);
  DataGraph out(NumNodes(), base.attr_names_ptr());
  for (NodeId v = 0; v < base_nodes_; ++v) {
    if (NodeRemoved(v)) {
      out.SetLabel(v, kRemovedNodeLabel);
      continue;
    }
    out.SetLabel(v, base.LabelOf(v));
    for (const AttrBinding& binding : base.Attrs(v).bindings()) {
      out.SetAttr(v, binding.attr, binding.value);
    }
  }
  for (size_t i = 0; i < added_labels_.size(); ++i) {
    const NodeId v = static_cast<NodeId>(base_nodes_ + i);
    out.SetLabel(v, NodeRemoved(v) ? kRemovedNodeLabel : added_labels_[i]);
  }
  for (NodeId v = 0; v < base_nodes_; ++v) {
    for (NodeId w : base.graph().OutNeighbors(v)) {
      if (!EdgeRemoved(v, w)) out.AddEdge(v, w);
    }
  }
  for (const auto& [v, targets] : added_out_) {
    for (NodeId w : targets) out.AddEdge(v, w);
  }
  if (base.HasSpanningTree()) {
    for (NodeId v = 0; v < base_nodes_; ++v) {
      const NodeId parent = base.TreeParentOf(v);
      if (parent != kInvalidNode && !EdgeRemoved(parent, v)) {
        out.SetTreeParent(v, parent);
      }
    }
  }
  out.Finalize();
  return out;
}

Result<DataGraph> ApplyUpdateBatch(const DataGraph& current,
                                   const UpdateBatch& batch) {
  for (int64_t label : batch.add_nodes) {
    if (label == kRemovedNodeLabel) {
      return Status::InvalidArgument(
          "add_node carries the label reserved for removed vertices");
    }
  }
  const auto removed = [&current](NodeId v) {
    return v < current.NumNodes() && current.LabelOf(v) == kRemovedNodeLabel;
  };
  const auto check_edges = [&](const std::vector<EdgeRef>& edges,
                               const char* op) {
    for (const EdgeRef& e : edges) {
      if (removed(e.from) || removed(e.to)) {
        return Status::FailedPrecondition(std::string(op) +
                                          " touches a removed vertex: " +
                                          EdgeName(e.from, e.to));
      }
    }
    return Status::OK();
  };
  GTPQ_RETURN_NOT_OK(check_edges(batch.add_edges, "add_edge"));
  GTPQ_RETURN_NOT_OK(check_edges(batch.remove_edges, "remove_edge"));
  for (NodeId v : batch.remove_nodes) {
    if (removed(v)) {
      return Status::FailedPrecondition("vertex already removed: " +
                                        std::to_string(v));
    }
  }
  // A one-batch delta, discarded on rejection, so the in-place apply
  // needs no atomicity copy.
  GraphDelta step(current.NumNodes());
  GTPQ_RETURN_NOT_OK(step.ApplyInPlace(current.graph(), batch));
  return step.MaterializeDataGraph(current);
}

}  // namespace gtpq

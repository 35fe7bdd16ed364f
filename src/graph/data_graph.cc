#include "graph/data_graph.h"

#include <algorithm>

namespace gtpq {

DataGraph::DataGraph() : attr_names_(std::make_shared<AttrNames>()) {}

DataGraph::DataGraph(size_t num_nodes) : DataGraph() {
  graph_.AddNodes(num_nodes);
  labels_.assign(num_nodes, 0);
  tuples_.resize(num_nodes);
}

DataGraph::DataGraph(size_t num_nodes,
                     std::shared_ptr<AttrNames> attr_names)
    : attr_names_(std::move(attr_names)) {
  GTPQ_CHECK(attr_names_ != nullptr);
  graph_.AddNodes(num_nodes);
  labels_.assign(num_nodes, 0);
  tuples_.resize(num_nodes);
}

NodeId DataGraph::AddNode() { return AddNode(0); }

NodeId DataGraph::AddNode(int64_t label) {
  NodeId id = graph_.AddNode();
  labels_.push_back(label);
  tuples_.emplace_back();
  if (!tree_parent_.empty()) tree_parent_.push_back(kInvalidNode);
  return id;
}

void DataGraph::AddEdge(NodeId from, NodeId to) { graph_.AddEdge(from, to); }

void DataGraph::SetLabel(NodeId v, int64_t label) {
  GTPQ_DCHECK(v < labels_.size());
  labels_[v] = label;
}

void DataGraph::SetAttr(NodeId v, const std::string& attr, AttrValue value) {
  SetAttr(v, attr_names_->Intern(attr), std::move(value));
}

void DataGraph::SetAttr(NodeId v, AttrId attr, AttrValue value) {
  GTPQ_DCHECK(v < tuples_.size());
  if (attr == attr_names_->label_attr()) {
    GTPQ_CHECK(value.is_int()) << "label attribute must be an integer";
    SetLabel(v, value.as_int());
    return;
  }
  tuples_[v].Set(attr, std::move(value));
}

const AttrValue* DataGraph::GetAttr(NodeId v, AttrId attr) const {
  if (attr == attr_names_->label_attr()) {
    // Materialize through a thread-local scratch value; callers only
    // compare/copy, never retain across calls.
    static thread_local AttrValue scratch;
    scratch = AttrValue(labels_[v]);
    return &scratch;
  }
  return tuples_[v].Get(attr);
}

void DataGraph::Finalize() {
  graph_.Finalize();
  label_index_.clear();
  for (NodeId v = 0; v < graph_.NumNodes(); ++v) {
    label_index_[labels_[v]].push_back(v);
  }
  for (auto& [label, nodes] : label_index_) {
    std::sort(nodes.begin(), nodes.end());
  }
}

std::span<const NodeId> DataGraph::NodesWithLabel(int64_t label) const {
  auto it = label_index_.find(label);
  if (it == label_index_.end()) return {};
  return {it->second.data(), it->second.size()};
}

void DataGraph::SetTreeParent(NodeId v, NodeId parent) {
  if (tree_parent_.empty()) {
    tree_parent_.assign(graph_.NumNodes(), kInvalidNode);
  }
  GTPQ_DCHECK(v < tree_parent_.size());
  tree_parent_[v] = parent;
}

}  // namespace gtpq

#ifndef GTPQ_GRAPH_DATA_GRAPH_H_
#define GTPQ_GRAPH_DATA_GRAPH_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/attribute.h"
#include "graph/digraph.h"

namespace gtpq {

/// A data graph G = (V, E, f) per Section 2: a directed graph whose
/// nodes carry attribute tuples. The conventional integer attribute
/// "label" gets a dedicated dense side array plus an inverted index,
/// since every benchmark predicate selects on it.
class DataGraph {
 public:
  DataGraph();
  explicit DataGraph(size_t num_nodes);
  /// Shares an existing attribute namespace instead of creating a fresh
  /// one. Snapshot materialization (dynamic/graph_delta.h) uses this so
  /// attribute ids stay stable across snapshots and queries interned
  /// against the base graph keep working unchanged.
  DataGraph(size_t num_nodes, std::shared_ptr<AttrNames> attr_names);

  /// Adds a node with label 0 and returns its id.
  NodeId AddNode();
  /// Adds a node with the given label.
  NodeId AddNode(int64_t label);

  void AddEdge(NodeId from, NodeId to);

  /// Sets the dense integer label of v (also visible as attribute
  /// "label" through Attrs()).
  void SetLabel(NodeId v, int64_t label);
  int64_t LabelOf(NodeId v) const { return labels_[v]; }

  /// Sets an arbitrary attribute A = a on node v.
  void SetAttr(NodeId v, const std::string& attr, AttrValue value);
  void SetAttr(NodeId v, AttrId attr, AttrValue value);

  /// The attribute tuple of v. Label is reported through LabelOf()/
  /// GetAttr(label_attr) rather than materialized in the tuple.
  const AttrTuple& Attrs(NodeId v) const { return tuples_[v]; }

  /// Looks up attribute `attr` on v; label queries hit the dense array.
  /// Returns nullptr when absent. The returned pointer is invalidated by
  /// subsequent mutation.
  const AttrValue* GetAttr(NodeId v, AttrId attr) const;

  /// Must be called once after construction and before queries.
  void Finalize();

  const Digraph& graph() const { return graph_; }
  size_t NumNodes() const { return graph_.NumNodes(); }
  size_t NumEdges() const { return graph_.NumEdges(); }
  std::span<const NodeId> OutNeighbors(NodeId v) const {
    return graph_.OutNeighbors(v);
  }
  std::span<const NodeId> InNeighbors(NodeId v) const {
    return graph_.InNeighbors(v);
  }
  bool HasEdge(NodeId from, NodeId to) const {
    return graph_.HasEdge(from, to);
  }

  AttrNames* attr_names() { return attr_names_.get(); }
  const AttrNames& attr_names() const { return *attr_names_; }
  /// Shared attribute namespace, for queries posed against this graph.
  const std::shared_ptr<AttrNames>& attr_names_ptr() const {
    return attr_names_;
  }
  AttrId label_attr() const { return attr_names_->label_attr(); }

  /// Nodes with the given label, sorted ascending. Built lazily at
  /// Finalize(). Missing labels yield an empty span.
  std::span<const NodeId> NodesWithLabel(int64_t label) const;

  /// Number of distinct labels present.
  size_t NumDistinctLabels() const { return label_index_.size(); }

  /// Optional spanning-tree annotation for tree+cross-edge graphs
  /// (XMark-style). kInvalidNode marks roots / unset entries. Baselines
  /// that require tree-structured input (TwigStack, Twig2Stack) and SSPI
  /// consume this. Generators populate it; for plain graphs it is empty.
  void SetTreeParent(NodeId v, NodeId parent);
  bool HasSpanningTree() const { return !tree_parent_.empty(); }
  NodeId TreeParentOf(NodeId v) const {
    return tree_parent_.empty() ? kInvalidNode : tree_parent_[v];
  }
  /// True iff edge (from,to) is a spanning-tree edge.
  bool IsTreeEdge(NodeId from, NodeId to) const {
    return !tree_parent_.empty() && tree_parent_[to] == from;
  }

 private:
  Digraph graph_;
  std::vector<int64_t> labels_;
  std::vector<AttrTuple> tuples_;
  std::vector<NodeId> tree_parent_;
  std::shared_ptr<AttrNames> attr_names_;
  std::unordered_map<int64_t, std::vector<NodeId>> label_index_;
};

}  // namespace gtpq

#endif  // GTPQ_GRAPH_DATA_GRAPH_H_

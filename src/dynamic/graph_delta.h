#ifndef GTPQ_DYNAMIC_GRAPH_DELTA_H_
#define GTPQ_DYNAMIC_GRAPH_DELTA_H_

#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "graph/data_graph.h"
#include "graph/digraph.h"

namespace gtpq {

/// A directed edge reference inside one update.
struct EdgeRef {
  NodeId from = 0;
  NodeId to = 0;

  bool operator==(const EdgeRef&) const = default;
};

/// Label stamped on removed vertices in materialized snapshots. The
/// vertex id itself is never reused (ids stay dense and stable across
/// snapshots); removal detaches every incident edge and retires the
/// label so ordinary label predicates stop matching the tombstone. The
/// label is the only record of a removal: ApplyUpdateBatch rejects any
/// later op at a vertex carrying it, also after a restart from a saved
/// graph.
inline constexpr int64_t kRemovedNodeLabel =
    std::numeric_limits<int64_t>::min();

/// One atomic group of graph mutations, expressed against the *current*
/// view (base graph + previously applied deltas). Operations apply in
/// field order: node additions first (new ids are appended after the
/// current node count, in vector order), then edge additions (which may
/// reference the just-added nodes), then edge removals, then vertex
/// removals (which drop every incident edge that survived so far).
struct UpdateBatch {
  /// Labels of appended vertices.
  std::vector<int64_t> add_nodes;
  std::vector<EdgeRef> add_edges;
  std::vector<EdgeRef> remove_edges;
  std::vector<NodeId> remove_nodes;

  size_t NumOps() const {
    return add_nodes.size() + add_edges.size() + remove_edges.size() +
           remove_nodes.size();
  }
  bool empty() const { return NumOps() == 0; }
};

/// Accumulated, validated difference between an immutable base Digraph
/// and the current graph view — the mutable half of the GenomicsDB-style
/// "frozen base artifact + delta fragments" model the dynamic subsystem
/// is built on. A delta never renumbers: base ids keep their meaning,
/// added vertices extend the id space, removed vertices leave tombstone
/// holes.
///
/// Apply() validates each batch against the combined view and rejects
/// (without mutating) duplicate edges, removals of absent edges,
/// references to removed or out-of-range vertices, and double removals,
/// so a delta can only ever describe a reachable state of the graph.
class GraphDelta {
 public:
  GraphDelta() = default;
  /// An empty delta over a base graph with `base_nodes` vertices.
  explicit GraphDelta(size_t base_nodes) : base_nodes_(base_nodes) {}

  /// Validates `batch` against base+this and folds it in. On error the
  /// delta is left untouched and the status names the offending op.
  /// `base` must be the finalized graph this delta was created over.
  Status Apply(const Digraph& base, const UpdateBatch& batch);

  /// Apply without the atomicity scratch copy: on error, mutations from
  /// ops preceding the offending one are kept (the version is not
  /// bumped). For SINGLE-op batches rejection happens before any
  /// mutation, which is what op-by-op generators
  /// (dynamic/stream_gen.h) rely on to validate candidates in O(op)
  /// instead of O(accumulated delta) per candidate. Prefer Apply()
  /// everywhere else.
  Status ApplyInPlace(const Digraph& base, const UpdateBatch& batch);

  // --- View accessors ---------------------------------------------------

  size_t base_nodes() const { return base_nodes_; }
  /// Current vertex count (base + added); removed ids stay counted.
  size_t NumNodes() const { return base_nodes_ + added_labels_.size(); }
  size_t NumAddedNodes() const { return added_labels_.size(); }
  size_t NumAddedEdges() const { return num_added_edges_; }
  size_t NumRemovedEdges() const { return removed_edge_set_.size(); }
  size_t NumRemovedNodes() const { return removed_node_set_.size(); }
  /// Total accumulated operations — the auto-compaction signal.
  size_t NumOps() const {
    return NumAddedNodes() + NumAddedEdges() + NumRemovedEdges() +
           NumRemovedNodes();
  }
  bool empty() const { return NumOps() == 0; }
  /// Batches folded in so far.
  uint64_t version() const { return version_; }

  bool NodeRemoved(NodeId v) const {
    return removed_node_set_.count(v) != 0;
  }
  bool EdgeRemoved(NodeId from, NodeId to) const {
    return removed_edge_set_.count(EdgeKey(from, to)) != 0;
  }
  /// Added out-neighbors of v, sorted ascending; empty when none.
  std::span<const NodeId> AddedOut(NodeId v) const;

  /// Enumerates removed edges (unordered) until fn returns true;
  /// reports whether a callback did.
  template <typename Fn>
  bool AnyRemovedEdge(Fn&& fn) const {
    for (uint64_t key : removed_edge_set_) {
      if (fn(static_cast<NodeId>(key >> 32),
             static_cast<NodeId>(key & 0xffffffffu))) {
        return true;
      }
    }
    return false;
  }
  /// Enumerates added edges (unordered) until fn returns true.
  template <typename Fn>
  bool AnyAddedEdge(Fn&& fn) const {
    for (const auto& [v, targets] : added_out_) {
      for (NodeId w : targets) {
        if (fn(v, w)) return true;
      }
    }
    return false;
  }

  /// True iff edge (from, to) exists in the combined base+delta view.
  bool HasEdgeInView(const Digraph& base, NodeId from, NodeId to) const;

  // --- Materialization --------------------------------------------------

  /// The combined view as a standalone finalized Digraph (compaction
  /// and golden rebuilds).
  Digraph MaterializeDigraph(const Digraph& base) const;

  /// The combined view as a standalone finalized DataGraph: labels and
  /// attribute tuples are copied (sharing `base`'s attribute namespace,
  /// so queries interned against the base keep their ids), added
  /// vertices carry their batch labels, removed vertices keep their id
  /// but lose every edge and get kRemovedNodeLabel. Spanning-tree
  /// annotation survives exactly where the tree edge does.
  DataGraph MaterializeDataGraph(const DataGraph& base) const;

 private:
  static uint64_t EdgeKey(NodeId from, NodeId to) {
    return (static_cast<uint64_t>(from) << 32) | to;
  }

  void InsertAddedEdge(NodeId from, NodeId to);
  void EraseAddedEdge(NodeId from, NodeId to);

  size_t base_nodes_ = 0;
  std::vector<int64_t> added_labels_;
  // Added-edge adjacency, forward and reverse, each list sorted. The
  // reverse map exists so vertex removal can drop in-edges without a
  // full forward scan.
  std::unordered_map<NodeId, std::vector<NodeId>> added_out_, added_in_;
  std::unordered_set<uint64_t> removed_edge_set_;
  std::unordered_set<NodeId> removed_node_set_;
  size_t num_added_edges_ = 0;
  uint64_t version_ = 0;
};

/// The graph step every update takes: validates `batch` against
/// `current` and returns the materialized successor graph (stable ids,
/// shared attribute namespace; see GraphDelta::MaterializeDataGraph).
/// Besides everything GraphDelta::Apply rejects, FailedPrecondition for
/// any op at a vertex labelled kRemovedNodeLabel and InvalidArgument
/// for an added vertex carrying that reserved label.
Result<DataGraph> ApplyUpdateBatch(const DataGraph& current,
                                   const UpdateBatch& batch);

}  // namespace gtpq

#endif  // GTPQ_DYNAMIC_GRAPH_DELTA_H_

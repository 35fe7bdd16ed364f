#ifndef GTPQ_QUERY_GTPQ_H_
#define GTPQ_QUERY_GTPQ_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "logic/formula.h"
#include "query/attribute_predicate.h"

namespace gtpq {

/// Query-node identifier, dense in [0, NumNodes). The propositional
/// variable p_u associated with node u (Section 2) is the integer u
/// itself, so structural predicates are logic::Formulas over node ids.
using QNodeId = uint32_t;
constexpr QNodeId kInvalidQNode = static_cast<QNodeId>(-1);

/// PC (parent-child) vs AD (ancestor-descendant) query edges.
enum class EdgeType { kChild, kDescendant };

/// Backbone vs predicate nodes (Section 2): backbone variables may not
/// appear under negation/disjunction and each backbone node has an image
/// in every match; predicate nodes only constrain.
enum class NodeRole { kBackbone, kPredicate };

/// One node of a generalized tree pattern query.
struct QueryNode {
  NodeRole role = NodeRole::kBackbone;
  /// fa(u): attribute predicate.
  AttributePredicate attr_pred;
  /// fs(u): structural predicate over the ids of u's *predicate*
  /// children; Formula::True() when there are none.
  logic::FormulaRef structural_pred;
  QNodeId parent = kInvalidQNode;
  /// Type of the incoming edge (parent, u); meaningless for the root.
  EdgeType incoming = EdgeType::kDescendant;
  std::vector<QNodeId> children;
  /// Diagnostic name (parser/printer); defaults to "u<i>".
  std::string name;
};

/// A generalized tree pattern query
/// Q = (Vb, Vp, Vo, Eq, fa, fe, fs) per Section 2. Construct through
/// QueryBuilder; instances are immutable afterwards.
class Gtpq {
 public:
  QNodeId root() const { return 0; }
  size_t NumNodes() const { return nodes_.size(); }
  /// |Q| = |Vq|.
  size_t size() const { return nodes_.size(); }
  const QueryNode& node(QNodeId u) const { return nodes_[u]; }

  const std::vector<QNodeId>& outputs() const { return outputs_; }
  bool IsOutput(QNodeId u) const { return is_output_[u]; }

  bool IsBackbone(QNodeId u) const {
    return nodes_[u].role == NodeRole::kBackbone;
  }
  bool IsLeaf(QNodeId u) const { return nodes_[u].children.empty(); }

  std::vector<QNodeId> PredicateChildren(QNodeId u) const;

  /// fext(u) = p_c1 & ... & p_ck & fs(u) over backbone children c_i.
  logic::FormulaRef ExtendedPredicate(QNodeId u) const;

  /// Only conjunction connectives in every fs (traditional TPQ).
  bool IsConjunctive() const;
  /// Negation-free structural predicates.
  bool IsUnionConjunctive() const;

  /// Nodes in a parent-before-child order (root first).
  std::vector<QNodeId> TopDownOrder() const;
  /// Children-before-parent order.
  std::vector<QNodeId> BottomUpOrder() const;

  /// True iff `anc` is a proper ancestor of `desc` in the query tree.
  bool IsAncestor(QNodeId anc, QNodeId desc) const;

  /// All nodes of the subtree rooted at u (including u), top-down.
  std::vector<QNodeId> Subtree(QNodeId u) const;

  /// Depth of u (root = 0).
  uint32_t DepthOf(QNodeId u) const;

  /// Structural invariants of Section 2: single root, tree shape,
  /// backbone parents for backbone nodes, outputs are backbone, fs
  /// variables are predicate children. QueryBuilder::Build runs this.
  Status Validate() const;

  /// Multi-line diagnostic rendering.
  std::string ToString(const AttrNames& names) const;

  /// Attribute namer shared with the target data graph(s).
  const std::shared_ptr<AttrNames>& attr_names() const {
    return attr_names_;
  }

 private:
  friend class QueryBuilder;
  Gtpq() = default;

  std::vector<QueryNode> nodes_;
  std::vector<QNodeId> outputs_;
  std::vector<char> is_output_;
  std::shared_ptr<AttrNames> attr_names_;
};

/// Incremental construction of GTPQs. Typical use:
///
///   QueryBuilder b(names);
///   QNodeId root = b.AddRoot("paper", pred);
///   QNodeId a = b.AddPredicate(root, EdgeType::kChild, "author", authorP);
///   b.SetStructural(root, Formula::Not(Formula::Var(a)));
///   b.MarkOutput(root);
///   Gtpq q = b.Build().TakeValue();
class QueryBuilder {
 public:
  explicit QueryBuilder(std::shared_ptr<AttrNames> names);
  /// Builder with a fresh attribute namespace.
  QueryBuilder();

  QNodeId AddRoot(std::string name, AttributePredicate pred);
  QNodeId AddBackbone(QNodeId parent, EdgeType edge, std::string name,
                      AttributePredicate pred);
  QNodeId AddPredicate(QNodeId parent, EdgeType edge, std::string name,
                       AttributePredicate pred);

  /// Sets fs(u); variables must be ids of u's predicate children.
  void SetStructural(QNodeId u, logic::FormulaRef fs);
  /// Replaces fa(u).
  void SetAttrPredicate(QNodeId u, AttributePredicate pred);
  void MarkOutput(QNodeId u);

  /// Shorthand: label-equality predicate in the builder's namespace.
  AttributePredicate Label(int64_t value) const;

  /// Validates and freezes. The builder may keep being used afterwards
  /// (Build copies).
  Result<Gtpq> Build() const;

 private:
  QNodeId AddNode(QNodeId parent, EdgeType edge, NodeRole role,
                  std::string name, AttributePredicate pred);

  Gtpq query_;
};

}  // namespace gtpq

#endif  // GTPQ_QUERY_GTPQ_H_

#include "query/gtpq.h"

#include <algorithm>

#include "common/logging.h"

namespace gtpq {

using logic::Formula;
using logic::FormulaRef;
using logic::Kind;

std::vector<QNodeId> Gtpq::PredicateChildren(QNodeId u) const {
  std::vector<QNodeId> out;
  for (QNodeId c : nodes_[u].children) {
    if (nodes_[c].role == NodeRole::kPredicate) out.push_back(c);
  }
  return out;
}

std::vector<QNodeId> Gtpq::BackboneChildren(QNodeId u) const {
  std::vector<QNodeId> out;
  for (QNodeId c : nodes_[u].children) {
    if (nodes_[c].role == NodeRole::kBackbone) out.push_back(c);
  }
  return out;
}

FormulaRef Gtpq::ExtendedPredicate(QNodeId u) const {
  std::vector<FormulaRef> parts;
  for (QNodeId c : nodes_[u].children) {
    if (nodes_[c].role == NodeRole::kBackbone) {
      parts.push_back(Formula::Var(static_cast<int>(c)));
    }
  }
  parts.push_back(nodes_[u].structural_pred);
  return Formula::And(std::move(parts));
}

namespace {
bool FormulaIsConjunctive(const FormulaRef& f) {
  switch (f->kind()) {
    case Kind::kConst:
    case Kind::kVar:
      return true;
    case Kind::kNot:
    case Kind::kOr:
      return false;
    case Kind::kAnd:
      for (const auto& c : f->children()) {
        if (!FormulaIsConjunctive(c)) return false;
      }
      return true;
  }
  return false;
}

bool FormulaIsNegationFree(const FormulaRef& f) {
  switch (f->kind()) {
    case Kind::kConst:
    case Kind::kVar:
      return true;
    case Kind::kNot:
      return false;
    case Kind::kAnd:
    case Kind::kOr:
      for (const auto& c : f->children()) {
        if (!FormulaIsNegationFree(c)) return false;
      }
      return true;
  }
  return false;
}
}  // namespace

bool Gtpq::IsConjunctive() const {
  for (const auto& n : nodes_) {
    if (!FormulaIsConjunctive(n.structural_pred)) return false;
  }
  return true;
}

bool Gtpq::IsUnionConjunctive() const {
  for (const auto& n : nodes_) {
    if (!FormulaIsNegationFree(n.structural_pred)) return false;
  }
  return true;
}

std::vector<QNodeId> Gtpq::TopDownOrder() const {
  // Nodes are created parent-first, so ids are already topological.
  std::vector<QNodeId> order(nodes_.size());
  for (QNodeId u = 0; u < nodes_.size(); ++u) order[u] = u;
  return order;
}

std::vector<QNodeId> Gtpq::BottomUpOrder() const {
  std::vector<QNodeId> order(nodes_.size());
  for (QNodeId u = 0; u < nodes_.size(); ++u) {
    order[u] = static_cast<QNodeId>(nodes_.size() - 1 - u);
  }
  return order;
}

bool Gtpq::IsAncestor(QNodeId anc, QNodeId desc) const {
  QNodeId cur = nodes_[desc].parent;
  while (cur != kInvalidQNode) {
    if (cur == anc) return true;
    cur = nodes_[cur].parent;
  }
  return false;
}

std::vector<QNodeId> Gtpq::Subtree(QNodeId u) const {
  std::vector<QNodeId> out{u};
  for (size_t i = 0; i < out.size(); ++i) {
    for (QNodeId c : nodes_[out[i]].children) out.push_back(c);
  }
  return out;
}

uint32_t Gtpq::DepthOf(QNodeId u) const {
  uint32_t d = 0;
  QNodeId cur = nodes_[u].parent;
  while (cur != kInvalidQNode) {
    ++d;
    cur = nodes_[cur].parent;
  }
  return d;
}

Status Gtpq::Validate() const {
  if (nodes_.empty()) {
    return Status::InvalidArgument("query has no nodes");
  }
  if (nodes_[0].parent != kInvalidQNode) {
    return Status::InvalidArgument("node 0 must be the root");
  }
  if (nodes_[0].role != NodeRole::kBackbone) {
    return Status::InvalidArgument("the root must be a backbone node");
  }
  for (QNodeId u = 0; u < nodes_.size(); ++u) {
    const QueryNode& n = nodes_[u];
    if (u != 0) {
      if (n.parent == kInvalidQNode || n.parent >= u) {
        return Status::InvalidArgument(
            "nodes must be created parent-first (node " +
            std::to_string(u) + ")");
      }
      const QueryNode& p = nodes_[n.parent];
      // Eq restriction: backbone nodes hang off backbone nodes only.
      if (n.role == NodeRole::kBackbone &&
          p.role != NodeRole::kBackbone) {
        return Status::InvalidArgument(
            "backbone node " + n.name + " under predicate parent");
      }
      if (std::find(p.children.begin(), p.children.end(), u) ==
          p.children.end()) {
        return Status::Internal("child list out of sync at " + n.name);
      }
    }
    if (n.structural_pred == nullptr) {
      return Status::Internal("missing structural predicate at " + n.name);
    }
    // fs variables must be predicate children of u.
    for (int var : logic::CollectVars(n.structural_pred)) {
      QNodeId c = static_cast<QNodeId>(var);
      if (c >= nodes_.size() || nodes_[c].parent != u ||
          nodes_[c].role != NodeRole::kPredicate) {
        return Status::InvalidArgument(
            "fs(" + n.name + ") references p" + std::to_string(var) +
            " which is not a predicate child");
      }
    }
  }
  for (QNodeId o : outputs_) {
    if (nodes_[o].role != NodeRole::kBackbone) {
      return Status::InvalidArgument("output node " + nodes_[o].name +
                                     " is not a backbone node");
    }
  }
  if (outputs_.empty()) {
    return Status::InvalidArgument("query must have at least one output");
  }
  return Status::OK();
}

std::string Gtpq::ToString(const AttrNames& names) const {
  std::string out;
  for (QNodeId u = 0; u < nodes_.size(); ++u) {
    const QueryNode& n = nodes_[u];
    out += n.role == NodeRole::kBackbone ? "backbone " : "predicate ";
    out += n.name;
    out += n.parent == kInvalidQNode
               ? " root"
               : " " + nodes_[n.parent].name +
                     (n.incoming == EdgeType::kChild ? " pc" : " ad");
    if (IsOutput(u)) out += " *";
    out += "\n";
    if (!n.attr_pred.IsTriviallyTrue()) {
      out += "attr " + n.name + " " + n.attr_pred.ToString(names) + "\n";
    }
    if (!n.structural_pred->is_true()) {
      out += "fs " + n.name + " = " +
             logic::ToString(n.structural_pred,
                             [this](int v) {
                               return nodes_[static_cast<QNodeId>(v)].name;
                             }) +
             "\n";
    }
  }
  return out;
}

QueryBuilder::QueryBuilder(std::shared_ptr<AttrNames> names) {
  GTPQ_CHECK(names != nullptr);
  query_.attr_names_ = std::move(names);
}

QueryBuilder::QueryBuilder()
    : QueryBuilder(std::make_shared<AttrNames>()) {}

QNodeId QueryBuilder::AddNode(QNodeId parent, EdgeType edge, NodeRole role,
                              std::string name, AttributePredicate pred) {
  QNodeId id = static_cast<QNodeId>(query_.nodes_.size());
  QueryNode n;
  n.role = role;
  n.attr_pred = std::move(pred);
  n.structural_pred = Formula::True();
  n.parent = parent;
  n.incoming = edge;
  // Not "u" + to_string: GCC 12 flags that as -Wrestrict at -O2.
  n.name = name.empty() ? std::to_string(id).insert(0, 1, 'u')
                         : std::move(name);
  query_.nodes_.push_back(std::move(n));
  query_.is_output_.push_back(0);
  if (parent != kInvalidQNode) {
    GTPQ_CHECK(parent < id) << "parent must exist before child";
    query_.nodes_[parent].children.push_back(id);
  }
  return id;
}

QNodeId QueryBuilder::AddRoot(std::string name, AttributePredicate pred) {
  GTPQ_CHECK(query_.nodes_.empty()) << "root must be the first node";
  return AddNode(kInvalidQNode, EdgeType::kDescendant,
                 NodeRole::kBackbone, std::move(name), std::move(pred));
}

QNodeId QueryBuilder::AddBackbone(QNodeId parent, EdgeType edge,
                                  std::string name,
                                  AttributePredicate pred) {
  return AddNode(parent, edge, NodeRole::kBackbone, std::move(name),
                 std::move(pred));
}

QNodeId QueryBuilder::AddPredicate(QNodeId parent, EdgeType edge,
                                   std::string name,
                                   AttributePredicate pred) {
  return AddNode(parent, edge, NodeRole::kPredicate, std::move(name),
                 std::move(pred));
}

void QueryBuilder::SetStructural(QNodeId u, FormulaRef fs) {
  GTPQ_CHECK(u < query_.nodes_.size());
  query_.nodes_[u].structural_pred = std::move(fs);
}

void QueryBuilder::SetAttrPredicate(QNodeId u, AttributePredicate pred) {
  GTPQ_CHECK(u < query_.nodes_.size());
  query_.nodes_[u].attr_pred = std::move(pred);
}

void QueryBuilder::MarkOutput(QNodeId u) {
  GTPQ_CHECK(u < query_.nodes_.size());
  if (!query_.is_output_[u]) {
    query_.is_output_[u] = 1;
    query_.outputs_.push_back(u);
  }
}

AttributePredicate QueryBuilder::Label(int64_t value) const {
  return AttributePredicate::LabelEquals(
      query_.attr_names_->label_attr(), value);
}

Result<Gtpq> QueryBuilder::Build() const {
  Gtpq copy = query_;
  Status st = copy.Validate();
  if (!st.ok()) return st;
  return copy;
}

}  // namespace gtpq

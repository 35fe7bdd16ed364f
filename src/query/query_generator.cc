#include "query/query_generator.h"

#include <algorithm>

namespace gtpq {

using logic::Formula;
using logic::FormulaRef;

namespace {

// Random walk of 1..max_steps hops downward from v; returns the end
// node, or kInvalidNode when v is a sink.
NodeId WalkDown(const DataGraph& g, NodeId v, uint32_t max_steps,
                Rng* rng) {
  NodeId cur = v;
  uint32_t steps = 1 + static_cast<uint32_t>(rng->NextBounded(max_steps));
  NodeId last_valid = kInvalidNode;
  for (uint32_t i = 0; i < steps; ++i) {
    auto nbrs = g.OutNeighbors(cur);
    if (nbrs.empty()) break;
    cur = nbrs[rng->NextBounded(nbrs.size())];
    last_valid = cur;
  }
  return last_valid;
}

// Builds a random structural predicate over `vars`, controlled by the
// disjunction/negation knobs. Vars not pulled into the formula remain
// unconstrained (their subtree is still part of the query but optional
// in no way — fs simply does not mention them is NOT allowed by the
// model, so every predicate child var must appear; we fold the leftover
// vars in conjunctively).
FormulaRef RandomStructural(const std::vector<int>& vars,
                            const QueryGenOptions& opts, Rng* rng) {
  std::vector<FormulaRef> literals;
  literals.reserve(vars.size());
  for (int v : vars) {
    FormulaRef lit = Formula::Var(v);
    if (rng->NextBool(opts.negation_probability)) {
      lit = Formula::Not(lit);
    }
    literals.push_back(lit);
  }
  if (literals.size() >= 2 && rng->NextBool(opts.disjunction_probability)) {
    // Split literals into 2 disjunctive groups of conjunctions:
    // (l1 & .. ) | (lk & ..).
    size_t cut = 1 + rng->NextBounded(literals.size() - 1);
    std::vector<FormulaRef> left(literals.begin(),
                                 literals.begin() + static_cast<long>(cut));
    std::vector<FormulaRef> right(literals.begin() + static_cast<long>(cut),
                                  literals.end());
    return Formula::Or(Formula::And(std::move(left)),
                       Formula::And(std::move(right)));
  }
  return Formula::And(std::move(literals));
}

}  // namespace

std::optional<Gtpq> GenerateRandomQuery(const DataGraph& g,
                                        const QueryGenOptions& options) {
  if (g.NumNodes() == 0 || options.num_nodes == 0) return std::nullopt;
  Rng rng(options.seed);

  // Sample a root with decent fan-out so the pattern can grow.
  NodeId root_image = kInvalidNode;
  for (int attempt = 0; attempt < 16; ++attempt) {
    NodeId cand = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    if (!g.OutNeighbors(cand).empty() || options.num_nodes == 1) {
      root_image = cand;
      break;
    }
  }
  if (root_image == kInvalidNode) return std::nullopt;

  // Queries share the graph's attribute namespace so label ids line up.
  QueryBuilder builder(g.attr_names_ptr());

  QNodeId root =
      builder.AddRoot("u0", AttributePredicate::LabelEquals(
                                g.label_attr(), g.LabelOf(root_image)));
  builder.MarkOutput(root);

  std::vector<QNodeId> nodes{root};
  std::vector<NodeId> images{root_image};
  std::vector<char> is_predicate{0};

  for (size_t i = 1; i < options.num_nodes; ++i) {
    // Pick an anchor with at least one realizable extension.
    bool added = false;
    for (int attempt = 0; attempt < 16 && !added; ++attempt) {
      size_t pick = rng.NextBounded(nodes.size());
      NodeId anchor_image = images[pick];
      const bool pc = rng.NextBool(options.pc_probability);
      NodeId target;
      if (pc) {
        auto nbrs = g.OutNeighbors(anchor_image);
        if (nbrs.empty()) continue;
        target = nbrs[rng.NextBounded(nbrs.size())];
      } else {
        target = WalkDown(g, anchor_image, options.max_walk, &rng);
        if (target == kInvalidNode) continue;
      }
      const bool predicate_role =
          is_predicate[pick] || rng.NextBool(options.predicate_fraction);
      const EdgeType edge = pc ? EdgeType::kChild : EdgeType::kDescendant;
      AttributePredicate pred = AttributePredicate::LabelEquals(
          g.label_attr(), g.LabelOf(target));
      // Not "u" + to_string: GCC 12 flags that as -Wrestrict at -O2.
      std::string name = std::to_string(i).insert(0, 1, 'u');
      QNodeId id =
          predicate_role
              ? builder.AddPredicate(nodes[pick], edge, name, pred)
              : builder.AddBackbone(nodes[pick], edge, name, pred);
      if (!predicate_role && rng.NextBool(options.output_fraction)) {
        builder.MarkOutput(id);
      }
      nodes.push_back(id);
      images.push_back(target);
      is_predicate.push_back(predicate_role ? 1 : 0);
      added = true;
    }
    if (!added) return std::nullopt;
  }

  // Assemble structural predicates bottom-up from predicate children.
  auto query = builder.Build();
  if (!query.ok()) return std::nullopt;
  for (QNodeId u = 0; u < query->NumNodes(); ++u) {
    auto pred_children = query->PredicateChildren(u);
    if (pred_children.empty()) continue;
    std::vector<int> vars(pred_children.begin(), pred_children.end());
    builder.SetStructural(u, RandomStructural(vars, options, &rng));
  }
  auto final_query = builder.Build();
  if (!final_query.ok()) return std::nullopt;
  return *final_query;
}

std::optional<Gtpq> GenerateRandomQueryWithRetry(
    const DataGraph& g, const QueryGenOptions& options, int max_attempts) {
  QueryGenOptions opts = options;
  for (int i = 0; i < max_attempts; ++i) {
    auto q = GenerateRandomQuery(g, opts);
    if (q.has_value()) return q;
    opts.seed = opts.seed * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return std::nullopt;
}

}  // namespace gtpq

#include "core/prune.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"

namespace gtpq {

namespace {

// True when the PC child must be evaluated exactly during pruning:
// predicate-role PC children never reach the matching graph, so the
// AD-approximation cannot be repaired for them.
bool NeedsExactPc(const Gtpq& q, QNodeId child) {
  return q.node(child).incoming == EdgeType::kChild &&
         q.node(child).role == NodeRole::kPredicate;
}

// Union of in-neighbors of all candidates, sorted (the P_{u'} sets of
// Section 4.4).
std::vector<NodeId> CollectParents(const DataGraph& g,
                                   const std::vector<NodeId>& candidates,
                                   EngineStats* stats) {
  std::vector<NodeId> parents;
  for (NodeId w : candidates) {
    auto in = g.InNeighbors(w);
    stats->input_nodes += in.size();
    parents.insert(parents.end(), in.begin(), in.end());
  }
  std::sort(parents.begin(), parents.end());
  parents.erase(std::unique(parents.begin(), parents.end()), parents.end());
  return parents;
}

}  // namespace

void PruneDownward(const DataGraph& g, const ReachabilityOracle& idx,
                   const Gtpq& q, std::vector<std::vector<NodeId>>* mat,
                   ParallelEvalContext* /*ctx*/, EngineStats* stats) {
  using SetSummary = ReachabilityOracle::SetSummary;

  for (QNodeId u : q.BottomUpOrder()) {
    auto& candidates = (*mat)[u];
    if (q.IsLeaf(u)) continue;

    const auto& children = q.node(u).children;
    std::vector<QNodeId> ad_children, pc_exact_children;
    for (QNodeId c : children) {
      (NeedsExactPc(q, c) ? pc_exact_children : ad_children).push_back(c);
    }
    std::vector<std::vector<NodeId>> parent_sets(pc_exact_children.size());
    for (size_t i = 0; i < pc_exact_children.size(); ++i) {
      parent_sets[i] = CollectParents(g, (*mat)[pc_exact_children[i]], stats);
    }

    // Summarize each AD child's (already pruned) candidate set once,
    // then probe every candidate against all summaries in one batch.
    std::vector<std::unique_ptr<SetSummary>> summaries;
    std::vector<const SetSummary*> summary_ptrs;
    summaries.reserve(ad_children.size());
    for (QNodeId c : ad_children) {
      summaries.push_back(idx.SummarizeTargets((*mat)[c]));
      summary_ptrs.push_back(summaries.back().get());
    }
    std::vector<std::vector<char>> reach;
    idx.ReachesSetsBatch(candidates, summary_ptrs, &reach);

    const logic::FormulaRef fext = q.ExtendedPredicate(u);
    std::vector<char> val(q.NumNodes(), 0);
    std::vector<NodeId> kept;
    kept.reserve(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      const NodeId v = candidates[i];
      for (size_t k = 0; k < ad_children.size(); ++k) {
        val[ad_children[k]] = reach[k][i];
      }
      for (size_t k = 0; k < pc_exact_children.size(); ++k) {
        val[pc_exact_children[k]] =
            std::binary_search(parent_sets[k].begin(), parent_sets[k].end(),
                               v)
                ? 1
                : 0;
      }
      const bool ok = logic::Evaluate(
          fext, [&](int var) { return val[static_cast<QNodeId>(var)]; });
      if (ok) kept.push_back(v);
    }
    stats->input_nodes += candidates.size();
    candidates = std::move(kept);
  }
}

std::vector<char> ComputePrimeSubtree(const Gtpq& q) {
  std::vector<char> in_prime(q.NumNodes(), 0);
  auto mark_to_root = [&q, &in_prime](QNodeId u) {
    while (u != kInvalidQNode && !in_prime[u]) {
      in_prime[u] = 1;
      u = q.node(u).parent;
    }
  };
  mark_to_root(q.root());
  for (QNodeId o : q.outputs()) mark_to_root(o);
  for (QNodeId u = 0; u < q.NumNodes(); ++u) {
    if (q.node(u).role == NodeRole::kBackbone &&
        q.node(u).incoming == EdgeType::kChild && u != q.root()) {
      mark_to_root(u);
    }
  }
  return in_prime;
}

bool PruneUpward(const DataGraph& g, const ReachabilityOracle& idx,
                 const Gtpq& q, const std::vector<char>& in_prime,
                 std::vector<std::vector<NodeId>>* mat,
                 const GteaOptions& options, ParallelEvalContext* /*ctx*/,
                 EngineStats* stats) {
  using SetSummary = ReachabilityOracle::SetSummary;
  std::vector<std::unique_ptr<SetSummary>> succ(q.NumNodes());
  succ[q.root()] = idx.SummarizeSources((*mat)[q.root()]);

  for (QNodeId u : q.TopDownOrder()) {
    if (!in_prime[u]) continue;
    if (u != q.root() && succ[u] == nullptr) continue;  // parent skipped

    for (QNodeId c : q.node(u).children) {
      if (!in_prime[c]) continue;
      auto& cand = (*mat)[c];
      const bool singleton_skip =
          options.skip_singleton_upward && cand.size() <= 1;

      if (!singleton_skip) {
        std::vector<NodeId> kept;
        if (q.node(c).incoming == EdgeType::kChild) {
          // Exact PC refinement: candidates must be children of some
          // candidate of u (Section 4.4 first strategy).
          std::vector<NodeId> child_union;
          for (NodeId p : (*mat)[u]) {
            auto out_nbrs = g.OutNeighbors(p);
            stats->input_nodes += out_nbrs.size();
            child_union.insert(child_union.end(), out_nbrs.begin(),
                               out_nbrs.end());
          }
          std::sort(child_union.begin(), child_union.end());
          std::set_intersection(cand.begin(), cand.end(),
                                child_union.begin(), child_union.end(),
                                std::back_inserter(kept));
          kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
        } else {
          // AD refinement: one batched probe of the candidates against
          // the parent's summarized (pruned) candidate set.
          std::vector<char> reached;
          idx.SetReachesBatch(*succ[u], cand, &reached);
          stats->input_nodes += cand.size();
          kept.reserve(cand.size());
          for (size_t i = 0; i < cand.size(); ++i) {
            if (reached[i]) kept.push_back(cand[i]);
          }
        }
        cand = std::move(kept);
        if (cand.empty()) return false;
      }
      // The child needs a source summary iff it has prime children.
      for (QNodeId gc : q.node(c).children) {
        if (in_prime[gc]) {
          succ[c] = idx.SummarizeSources(cand);
          break;
        }
      }
    }
  }
  return true;
}

}  // namespace gtpq

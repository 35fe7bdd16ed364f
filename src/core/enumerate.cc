#include "core/enumerate.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace gtpq {

namespace {

// Partial tuples span the full output width; kInvalidNode marks unset
// slots. Distinct subtrees fill disjoint slot sets, so merging is a
// slot-wise overlay.
using Partial = std::vector<NodeId>;

void SortDedup(std::vector<Partial>* tuples) {
  std::sort(tuples->begin(), tuples->end());
  tuples->erase(std::unique(tuples->begin(), tuples->end()),
                tuples->end());
}

// Slot-wise overlay of every (a, b) pair in `left` x `right`, in that
// order, stopping once `limit` tuples are out (0 = no cap).
std::vector<Partial> CappedProduct(const std::vector<Partial>& left,
                                   const std::vector<Partial>& right,
                                   size_t limit) {
  std::vector<Partial> out;
  out.reserve(left.size() * right.size());
  for (const auto& a : left) {
    for (const auto& b : right) {
      if (limit != 0 && out.size() >= limit) return out;
      Partial merged = a;
      for (size_t k = 0; k < merged.size(); ++k) {
        if (b[k] != kInvalidNode) merged[k] = b[k];
      }
      out.push_back(std::move(merged));
    }
  }
  return out;
}

class Enumerator {
 public:
  Enumerator(const Gtpq& q, const MatchingGraph& mg,
             const GteaOptions& options)
      : q_(q), mg_(mg), options_(options) {
    outputs_ = q.outputs();
    std::sort(outputs_.begin(), outputs_.end());
    slot_of_.assign(q.NumNodes(), SIZE_MAX);
    for (size_t i = 0; i < outputs_.size(); ++i) slot_of_[outputs_[i]] = i;
  }

  QueryResult Run() {
    QueryResult result;
    result.output_nodes = outputs_;
    ComputeForest();
    FillMemo();

    // Every included root contributes a tuple set; the answer is their
    // slot-wise Cartesian product, overlaid with singleton constants.
    std::vector<Partial> acc{Partial(outputs_.size(), kInvalidNode)};
    for (const auto& [u, v] : constants_) {
      if (slot_of_[u] != SIZE_MAX) {
        for (auto& t : acc) t[slot_of_[u]] = v;
      }
    }
    for (QNodeId r : roots_) {
      std::vector<Partial> sub;
      for (uint32_t i = 0; i < mg_.Candidates(r).size(); ++i) {
        const auto& tuples = memo_[r][i];
        sub.insert(sub.end(), tuples.begin(), tuples.end());
      }
      SortDedup(&sub);
      acc = CappedProduct(acc, sub, options_.result_limit);
      if (acc.empty()) break;  // no matches from this subtree
    }
    result.tuples = std::move(acc);
    result.Normalize();
    return result;
  }

 private:
  // Decides which prime nodes take part in enumeration (the shrunk
  // prime subtree) and which become constants.
  void ComputeForest() {
    const size_t n = q_.NumNodes();
    included_.assign(n, 0);
    for (QNodeId u = 0; u < n; ++u) included_[u] = mg_.InTree(u);

    // LCA of all outputs: walk each output's ancestor path; the deepest
    // common node. Outputs are non-empty by query validation.
    QNodeId lca = outputs_[0];
    auto ancestors_of = [&](QNodeId u) {
      std::vector<QNodeId> path;
      for (QNodeId x = u; x != kInvalidQNode; x = q_.node(x).parent) {
        path.push_back(x);
      }
      std::reverse(path.begin(), path.end());  // root first
      return path;
    };
    std::vector<QNodeId> common = ancestors_of(outputs_[0]);
    for (size_t i = 1; i < outputs_.size(); ++i) {
      auto path = ancestors_of(outputs_[i]);
      size_t len = std::min(common.size(), path.size());
      size_t k = 0;
      while (k < len && common[k] == path[k]) ++k;
      common.resize(k);
    }
    GTPQ_CHECK(!common.empty());
    lca = common.back();
    // Drop proper ancestors of the LCA.
    for (QNodeId x = q_.node(lca).parent; x != kInvalidQNode;
         x = q_.node(x).parent) {
      included_[x] = 0;
    }

    // Iteratively detach singleton-candidate nodes (recording output
    // constants) and drop non-output leaves.
    bool changed = true;
    while (changed) {
      changed = false;
      for (QNodeId u = 0; u < n; ++u) {
        if (!included_[u]) continue;
        if (mg_.Candidates(u).size() == 1) {
          if (q_.IsOutput(u)) {
            constants_.emplace_back(u, mg_.Candidates(u)[0]);
          }
          included_[u] = 0;
          changed = true;
          continue;
        }
        if (!q_.IsOutput(u)) {
          bool has_included_child = false;
          for (QNodeId c : q_.node(u).children) {
            if (included_[c]) {
              has_included_child = true;
              break;
            }
          }
          if (!has_included_child) {
            included_[u] = 0;
            changed = true;
          }
        }
      }
    }
    roots_.clear();
    for (QNodeId u = 0; u < n; ++u) {
      if (!included_[u]) continue;
      QNodeId p = q_.node(u).parent;
      if (p == kInvalidQNode || !included_[p]) roots_.push_back(u);
    }
  }

  // Fills the CollectResults memo in one bottom-up pass over the query.
  // The reduced matching graph guarantees every candidate of every
  // included node is referenced by some live parent branch, so eager
  // evaluation computes exactly the entries a lazy recursion would.
  void FillMemo() {
    memo_.assign(q_.NumNodes(), {});
    for (QNodeId u : q_.BottomUpOrder()) {
      if (!included_[u]) continue;
      memo_[u].resize(mg_.Candidates(u).size());
      for (uint32_t i = 0; i < mg_.Candidates(u).size(); ++i) {
        ComputeEntry(u, i);
      }
    }
  }

  // CollectResults for one memo entry: tuples over the outputs of u's
  // included subtree for candidate #i of u. Child entries are already
  // complete (children come first in bottom-up order).
  void ComputeEntry(QNodeId u, uint32_t cand_index) {
    std::vector<Partial> acc{Partial(outputs_.size(), kInvalidNode)};
    if (q_.IsOutput(u)) {
      acc[0][slot_of_[u]] = mg_.Candidates(u)[cand_index];
    }
    const auto& kids = mg_.PrimeChildren(u);
    for (uint32_t slot = 0; slot < kids.size(); ++slot) {
      if (!included_[kids[slot]]) continue;
      // Branch results: union over pointed-to child candidates.
      std::vector<Partial> branch;
      for (uint32_t wi : mg_.Branch(u, cand_index, slot)) {
        const auto& sub = memo_[kids[slot]][wi];
        branch.insert(branch.end(), sub.begin(), sub.end());
      }
      SortDedup(&branch);
      acc = CappedProduct(acc, branch, options_.result_limit);
      if (acc.empty()) break;
    }
    memo_[u][cand_index] = std::move(acc);
  }

  const Gtpq& q_;
  const MatchingGraph& mg_;
  const GteaOptions& options_;
  std::vector<QNodeId> outputs_;
  std::vector<size_t> slot_of_;
  std::vector<char> included_;
  std::vector<QNodeId> roots_;
  std::vector<std::pair<QNodeId, NodeId>> constants_;
  // memo_[u][i]: result tuples of candidate #i of included node u.
  std::vector<std::vector<std::vector<Partial>>> memo_;
};

}  // namespace

QueryResult EnumerateResults(const Gtpq& q, const MatchingGraph& mg,
                             const GteaOptions& options,
                             ParallelEvalContext* /*ctx*/,
                             EngineStats* stats) {
  (void)stats;
  Enumerator e(q, mg, options);
  return e.Run();
}

}  // namespace gtpq

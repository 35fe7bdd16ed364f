#include "core/matching_graph.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"

namespace gtpq {

size_t MatchingGraph::TotalNodes() const {
  size_t n = 0;
  for (QNodeId u = 0; u < covered_.size(); ++u) {
    if (covered_[u]) n += cand_[u].size();
  }
  return n;
}

size_t MatchingGraph::TotalEdges() const {
  size_t n = 0;
  for (QNodeId u = 0; u < covered_.size(); ++u) {
    if (!covered_[u]) continue;
    for (const auto& per_cand : branches_[u]) {
      for (const auto& lst : per_cand) n += lst.size();
    }
  }
  return n;
}

MatchingGraph BuildMatchingGraph(const DataGraph& g,
                                 const ReachabilityOracle& idx,
                                 const Gtpq& q,
                                 const std::vector<char>& in_prime,
                                 const std::vector<std::vector<NodeId>>& mat,
                                 const GteaOptions& options,
                                 ParallelEvalContext* /*ctx*/,
                                 EngineStats* stats) {
  MatchingGraph mg;
  const size_t n = q.NumNodes();
  mg.covered_.assign(n, 0);
  mg.cand_.resize(n);
  mg.prime_children_.resize(n);
  mg.branches_.resize(n);
  mg.alive_.resize(n);

  for (QNodeId u = 0; u < n; ++u) {
    if (!in_prime[u]) continue;
    mg.covered_[u] = 1;
    mg.cand_[u] = mat[u];
    mg.alive_[u].assign(mat[u].size(), 1);
    for (QNodeId c : q.node(u).children) {
      if (in_prime[c]) mg.prime_children_[u].push_back(c);
    }
  }

  for (QNodeId u = 0; u < n; ++u) {
    if (!mg.covered_[u]) continue;
    const auto& parents = mg.cand_[u];
    const auto& kids = mg.prime_children_[u];
    mg.branches_[u].assign(parents.size(), {});
    if (kids.empty()) continue;
    for (auto& b : mg.branches_[u]) b.resize(kids.size());

    for (size_t slot = 0; slot < kids.size(); ++slot) {
      const QNodeId c = kids[slot];
      const auto& child_cand = mg.cand_[c];

      if (q.node(c).incoming == EdgeType::kChild) {
        // PC edge: adjacency intersection over a candidate index map.
        std::unordered_map<NodeId, uint32_t> index_of;
        index_of.reserve(child_cand.size());
        for (uint32_t i = 0; i < child_cand.size(); ++i) {
          index_of.emplace(child_cand[i], i);
        }
        for (size_t pi = 0; pi < parents.size(); ++pi) {
          auto& branch = mg.branches_[u][pi][slot];
          for (NodeId w : g.OutNeighbors(parents[pi])) {
            ++stats->input_nodes;
            auto it = index_of.find(w);
            if (it != index_of.end()) branch.push_back(it->second);
          }
        }
        continue;
      }

      if (!options.contour_matching_graph) {
        // Straightforward pairwise reachability (Section 4.3 baseline).
        for (size_t pi = 0; pi < parents.size(); ++pi) {
          auto& branch = mg.branches_[u][pi][slot];
          for (uint32_t wi = 0; wi < child_cand.size(); ++wi) {
            if (idx.Reaches(parents[pi], child_cand[wi])) {
              branch.push_back(wi);
            }
          }
        }
        continue;
      }

      // Batched scan: prepare the child candidates once, then find each
      // parent candidate's successors among them in one oracle call
      // (per-candidate successor contours with the ascending-chain
      // early break on contour-capable backends).
      auto prepared = idx.PrepareSuccessorTargets(child_cand);
      for (size_t pi = 0; pi < parents.size(); ++pi) {
        idx.SuccessorsAmong(parents[pi], *prepared,
                            &mg.branches_[u][pi][slot]);
      }
    }
  }
  stats->intermediate_size = 2 * (mg.TotalNodes() + mg.TotalEdges());
  return mg;
}

bool ReduceMatchingGraph(const Gtpq& q, MatchingGraph* mg,
                         EngineStats* stats) {
  (void)stats;
  // Support counters. parent_support[u][i]: number of live parent-edge
  // endpoints pointing at candidate i of u. child_support[u][i][slot]:
  // live branch entries of candidate i of u for that child slot.
  const size_t n = q.NumNodes();
  std::vector<std::vector<uint32_t>> parent_support(n);
  std::vector<std::vector<std::vector<uint32_t>>> child_support(n);
  // Reverse adjacency: for candidate (c, wi), the list of (u, pi, slot)
  // parents, flattened as indices.
  struct ParentRef {
    QNodeId u;
    uint32_t pi;
    uint32_t slot;
  };
  std::vector<std::vector<std::vector<ParentRef>>> rev(n);

  QNodeId prime_root = kInvalidQNode;
  for (QNodeId u = 0; u < n; ++u) {
    if (!mg->InTree(u)) continue;
    if (prime_root == kInvalidQNode) prime_root = u;  // root has lowest id
    parent_support[u].assign(mg->cand_[u].size(), 0);
    child_support[u].resize(mg->cand_[u].size());
    rev[u].resize(mg->cand_[u].size());
  }
  for (QNodeId u = 0; u < n; ++u) {
    if (!mg->InTree(u)) continue;
    const auto& kids = mg->prime_children_[u];
    for (uint32_t pi = 0; pi < mg->cand_[u].size(); ++pi) {
      child_support[u][pi].resize(kids.size());
      for (uint32_t slot = 0; slot < kids.size(); ++slot) {
        const auto& lst = mg->branches_[u][pi][slot];
        child_support[u][pi][slot] = static_cast<uint32_t>(lst.size());
        for (uint32_t wi : lst) {
          ++parent_support[kids[slot]][wi];
          rev[kids[slot]][wi].push_back(ParentRef{u, pi, slot});
        }
      }
    }
  }

  // Initial kill set: missing child branch, or (non-root) no parent.
  std::vector<std::pair<QNodeId, uint32_t>> worklist;
  auto needs_kill = [&](QNodeId u, uint32_t i) {
    if (u != prime_root && parent_support[u][i] == 0) return true;
    for (uint32_t s = 0; s < child_support[u][i].size(); ++s) {
      if (child_support[u][i][s] == 0) return true;
    }
    return false;
  };
  for (QNodeId u = 0; u < n; ++u) {
    if (!mg->InTree(u)) continue;
    for (uint32_t i = 0; i < mg->cand_[u].size(); ++i) {
      if (needs_kill(u, i)) {
        mg->alive_[u][i] = 0;
        worklist.emplace_back(u, i);
      }
    }
  }
  while (!worklist.empty()) {
    auto [u, i] = worklist.back();
    worklist.pop_back();
    // Propagate to children: their parent support drops.
    const auto& kids = mg->prime_children_[u];
    for (uint32_t slot = 0; slot < kids.size(); ++slot) {
      for (uint32_t wi : mg->branches_[u][i][slot]) {
        QNodeId c = kids[slot];
        if (!mg->alive_[c][wi]) continue;
        if (--parent_support[c][wi] == 0 && c != prime_root) {
          mg->alive_[c][wi] = 0;
          worklist.emplace_back(c, wi);
        }
      }
    }
    // Propagate to parents: their child support drops.
    for (const auto& ref : rev[u][i]) {
      if (!mg->alive_[ref.u][ref.pi]) continue;
      if (--child_support[ref.u][ref.pi][ref.slot] == 0) {
        mg->alive_[ref.u][ref.pi] = 0;
        worklist.emplace_back(ref.u, ref.pi);
      }
    }
  }

  // Compact: drop dead candidates and remap branch indices.
  for (QNodeId u = 0; u < n; ++u) {
    if (!mg->InTree(u)) continue;
    const size_t m = mg->cand_[u].size();
    std::vector<uint32_t> remap(m, UINT32_MAX);
    uint32_t next = 0;
    for (uint32_t i = 0; i < m; ++i) {
      if (mg->alive_[u][i]) remap[i] = next++;
    }
    if (next == m) continue;  // nothing died
    std::vector<NodeId> new_cand;
    std::vector<std::vector<std::vector<uint32_t>>> new_branches;
    new_cand.reserve(next);
    new_branches.reserve(next);
    for (uint32_t i = 0; i < m; ++i) {
      if (!mg->alive_[u][i]) continue;
      new_cand.push_back(mg->cand_[u][i]);
      new_branches.push_back(std::move(mg->branches_[u][i]));
    }
    mg->cand_[u] = std::move(new_cand);
    mg->branches_[u] = std::move(new_branches);
    mg->alive_[u].assign(mg->cand_[u].size(), 1);
    // Fix parent branch lists pointing into u.
    QNodeId parent = q.node(u).parent;
    if (parent != kInvalidQNode && mg->InTree(parent)) {
      const auto& kids = mg->prime_children_[parent];
      uint32_t slot = UINT32_MAX;
      for (uint32_t s = 0; s < kids.size(); ++s) {
        if (kids[s] == u) slot = s;
      }
      GTPQ_CHECK(slot != UINT32_MAX);
      for (auto& per_cand : mg->branches_[parent]) {
        auto& lst = per_cand[slot];
        std::vector<uint32_t> fixed;
        fixed.reserve(lst.size());
        for (uint32_t wi : lst) {
          if (remap[wi] != UINT32_MAX) fixed.push_back(remap[wi]);
        }
        lst = std::move(fixed);
      }
    }
  }

  for (QNodeId u = 0; u < n; ++u) {
    if (mg->InTree(u) && mg->cand_[u].empty()) return false;
  }
  return true;
}

}  // namespace gtpq

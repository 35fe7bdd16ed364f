#include "dynamic/delta_overlay.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/logging.h"
#include "reachability/factory.h"

namespace gtpq {

namespace {
uint64_t NextSnapshotTag() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

DeltaOverlayOracle::DeltaOverlayOracle(
    std::shared_ptr<const ReachabilityOracle> inner, const Digraph* base)
    : inner_(std::move(inner)),
      name_("delta:" + std::string(inner_->name())),
      base_(base),
      delta_(base->NumNodes()),
      scratch_(std::make_shared<PerThread<SearchScratch>>()),
      prefilter_(std::make_shared<PerThread<PrefilterCache>>()),
      snapshot_tag_(NextSnapshotTag()) {
  GTPQ_CHECK(base_->finalized());
}

DeltaOverlayOracle::PrefilterCache&
DeltaOverlayOracle::LocalPrefilterCache() const {
  PrefilterCache& cache = prefilter_->Local();
  if (cache.snapshot_tag != snapshot_tag_) {
    cache.snapshot_tag = snapshot_tag_;
    cache.tainted.assign(delta_.base_nodes(), 0);
    cache.usable.assign(delta_.base_nodes(), 0);
  }
  return cache;
}

bool DeltaOverlayOracle::InnerReaches(NodeId from, NodeId to) const {
  IndexStats& st = stats();
  const uint64_t before = inner_->stats().elements_looked_up;
  const bool reaches = inner_->Reaches(from, to);
  st.elements_looked_up += inner_->stats().elements_looked_up - before;
  return reaches;
}

bool DeltaOverlayOracle::Reaches(NodeId from, NodeId to) const {
  IndexStats& st = stats();
  ++st.queries;
  const size_t n = delta_.NumNodes();
  if (from >= n || to >= n) return false;
  if (delta_.empty()) return InnerReaches(from, to);

  const NodeId nb = static_cast<NodeId>(delta_.base_nodes());
  const bool base_pair = from < nb && to < nb;
  const bool has_added = delta_.NumAddedEdges() > 0;
  const bool has_removed = delta_.NumRemovedEdges() > 0;
  if (base_pair) {
    // O(|delta|) prefilters that settle most probes without touching
    // the graph, keeping the search a fallback even for mixed deltas.
    if (InnerReaches(from, to)) {
      // No removed edges: every base path survives. (Removed
      // *vertices* without removed edges were isolated and cannot
      // invalidate a base path.)
      if (!has_removed) return true;
      if (!SourceTainted(from)) return true;
    } else {
      if (!has_added) return false;
      if (!UsableAddInto(to)) return false;
    }
  } else if (!has_added) {
    // Vertices outside the base id space only ever touch added edges.
    return false;
  }
  return SearchReaches(from, to);
}

bool DeltaOverlayOracle::SourceTainted(NodeId from) const {
  std::vector<uint8_t>& memo = LocalPrefilterCache().tainted;
  if (memo[from] != 0) return memo[from] == 1;
  // A base path out of `from` can only be severed by a removed edge
  // whose tail `from` base-reaches; if no removed tail is in `from`'s
  // base cone, every positive base answer from `from` keeps a witness
  // path intact.
  const bool tainted =
      delta_.AnyRemovedEdge([&](NodeId tail, NodeId head) {
        (void)head;
        return from == tail || InnerReaches(from, tail);
      });
  memo[from] = tainted ? 1 : 2;
  return tainted;
}

bool DeltaOverlayOracle::UsableAddInto(NodeId to) const {
  std::vector<uint8_t>& memo = LocalPrefilterCache().usable;
  if (memo[to] != 0) return memo[to] == 1;
  // Without a base path, a current path must cross an added edge, and
  // past its LAST added edge (x, y) it runs on base-minus-removed
  // edges only — so y must be `to` or base-reach `to`. If no added
  // edge qualifies, negative base answers into `to` are final.
  const NodeId nb = static_cast<NodeId>(delta_.base_nodes());
  const bool usable =
      delta_.AnyAddedEdge([&](NodeId tail, NodeId head) {
        (void)tail;
        return head == to || (head < nb && InnerReaches(head, to));
      });
  memo[to] = usable ? 1 : 2;
  return usable;
}

bool DeltaOverlayOracle::SearchReaches(NodeId from, NodeId to) const {
  IndexStats& st = stats();
  SearchScratch& scratch = scratch_->Local();
  const size_t n = delta_.NumNodes();
  const NodeId nb = static_cast<NodeId>(delta_.base_nodes());
  if (scratch.mark.size() < n) scratch.mark.resize(n, 0);
  if (++scratch.epoch == 0) {
    std::fill(scratch.mark.begin(), scratch.mark.end(), 0);
    scratch.epoch = 1;
  }
  const uint32_t epoch = scratch.epoch;
  const bool adds_only = delta_.NumRemovedEdges() == 0;
  const bool removes_only = delta_.NumAddedEdges() == 0;
  const bool to_in_base = to < nb;

  std::vector<NodeId>& stack = scratch.stack;
  stack.clear();

  // Marks and pushes w; reports whether w is the target. In the
  // delete-only regime the base index over-approximates current
  // reachability, so anything it rules out is pruned with its whole
  // subtree.
  auto visit = [&](NodeId w) -> bool {
    if (w == to) return true;
    if (scratch.mark[w] == epoch) return false;
    scratch.mark[w] = epoch;
    if (removes_only && to_in_base && w < nb && !InnerReaches(w, to)) {
      return false;
    }
    stack.push_back(w);
    return false;
  };

  auto expand = [&](NodeId x) -> bool {
    if (x < nb) {
      for (NodeId w : base_->OutNeighbors(x)) {
        ++st.elements_looked_up;
        if (delta_.EdgeRemoved(x, w)) continue;
        if (visit(w)) return true;
      }
    }
    for (NodeId w : delta_.AddedOut(x)) {
      ++st.elements_looked_up;
      if (visit(w)) return true;
    }
    return false;
  };

  // The start vertex is expanded but never marked, so a cycle back to
  // it satisfies the non-empty-path self-reachability semantics.
  if (expand(from)) return true;
  while (!stack.empty()) {
    const NodeId x = stack.back();
    stack.pop_back();
    // Insert-only regime: base paths survive, so climbing onto indexed
    // territory that reaches the target finishes the search.
    if (adds_only && to_in_base && x < nb && InnerReaches(x, to)) {
      return true;
    }
    if (expand(x)) return true;
  }
  return false;
}

// --- Delta-aware set reachability --------------------------------------

namespace {

/// Wrapper summary: the raw member list for pairwise fallbacks plus the
/// inner index's native summary over the members that live in the base
/// id space (added vertices cannot appear in any base-index structure).
class DeltaSetSummary : public ReachabilityOracle::SetSummary {
 public:
  std::vector<NodeId> members;
  std::unique_ptr<ReachabilityOracle::SetSummary> inner;  // may be null
};

const DeltaSetSummary& AsDelta(const ReachabilityOracle::SetSummary& s) {
  return static_cast<const DeltaSetSummary&>(s);
}

/// Runs an inner-index operation with decorator accounting: the inner
/// elements visited roll up into the overlay's stats slot (the
/// set-probe sibling of DeltaOverlayOracle::InnerReaches).
template <typename Fn>
auto WithInnerStats(const DeltaOverlayOracle& oracle, Fn&& fn) {
  const uint64_t before = oracle.inner().stats().elements_looked_up;
  auto result = fn();
  oracle.stats().elements_looked_up +=
      oracle.inner().stats().elements_looked_up - before;
  return result;
}

/// Shared summary construction for both probe directions.
std::unique_ptr<DeltaSetSummary> MakeDeltaSummary(
    const DeltaOverlayOracle& oracle, std::span<const NodeId> members,
    bool targets) {
  auto summary = std::make_unique<DeltaSetSummary>();
  summary->members.assign(members.begin(), members.end());
  const NodeId nb = static_cast<NodeId>(oracle.delta().base_nodes());
  std::vector<NodeId> base_members;
  for (NodeId m : members) {
    if (m < nb) base_members.push_back(m);
  }
  if (!base_members.empty()) {
    summary->inner = WithInnerStats(oracle, [&] {
      return targets ? oracle.inner().SummarizeTargets(base_members)
                     : oracle.inner().SummarizeSources(base_members);
    });
  }
  return summary;
}

/// Shared probe core. `downward` distinguishes ReachesSet (v reaches a
/// member?) from SetReaches (a member reaches v?). Regime proofs mirror
/// Reaches(): adds keep base paths alive, so a positive inner answer
/// stands; without added edges nothing new is reachable, so a negative
/// inner answer stands (vertices outside the base id space only ever
/// touch added edges).
bool DeltaSetProbe(const DeltaOverlayOracle& oracle, NodeId v,
                   const DeltaSetSummary& summary, bool downward) {
  ++oracle.stats().queries;
  const GraphDelta& delta = oracle.delta();
  if (v >= delta.NumNodes() || summary.members.empty()) return false;

  const NodeId nb = static_cast<NodeId>(delta.base_nodes());
  bool inner_hit = false;
  if (v < nb && summary.inner != nullptr) {
    inner_hit = WithInnerStats(oracle, [&] {
      return downward ? oracle.inner().ReachesSet(v, *summary.inner)
                      : oracle.inner().SetReaches(*summary.inner, v);
    });
  }
  if (delta.empty()) return inner_hit;
  if (delta.NumRemovedEdges() == 0 && inner_hit) return true;
  if (delta.NumAddedEdges() == 0 && !inner_hit) return false;
  for (NodeId m : summary.members) {
    if (downward ? oracle.Reaches(v, m) : oracle.Reaches(m, v)) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::unique_ptr<ReachabilityOracle::SetSummary>
DeltaOverlayOracle::SummarizeTargets(std::span<const NodeId> members) const {
  return MakeDeltaSummary(*this, members, /*targets=*/true);
}

std::unique_ptr<ReachabilityOracle::SetSummary>
DeltaOverlayOracle::SummarizeSources(std::span<const NodeId> members) const {
  return MakeDeltaSummary(*this, members, /*targets=*/false);
}

bool DeltaOverlayOracle::ReachesSet(NodeId from,
                                    const SetSummary& targets) const {
  return DeltaSetProbe(*this, from, AsDelta(targets), /*downward=*/true);
}

bool DeltaOverlayOracle::SetReaches(const SetSummary& sources,
                                    NodeId to) const {
  return DeltaSetProbe(*this, to, AsDelta(sources), /*downward=*/false);
}

std::unique_ptr<ReachabilityOracle::SetSummary>
DeltaOverlayOracle::PrepareSuccessorTargets(
    std::span<const NodeId> targets) const {
  auto summary = std::make_unique<DeltaSetSummary>();
  summary->members.assign(targets.begin(), targets.end());
  // Indices returned by SuccessorsAmong are positions in the prepared
  // list, so the inner preparation must cover the EXACT same list —
  // only sound when the delta cannot shift any answer.
  if (delta_.empty()) {
    summary->inner = WithInnerStats(
        *this, [&] { return inner_->PrepareSuccessorTargets(targets); });
  }
  return summary;
}

void DeltaOverlayOracle::SuccessorsAmong(NodeId from,
                                         const SetSummary& targets,
                                         std::vector<uint32_t>* out) const {
  const DeltaSetSummary& summary = AsDelta(targets);
  if (summary.inner != nullptr) {
    WithInnerStats(*this, [&] {
      inner_->SuccessorsAmong(from, *summary.inner, out);
      return 0;
    });
    return;
  }
  for (uint32_t i = 0; i < summary.members.size(); ++i) {
    if (Reaches(from, summary.members[i])) out->push_back(i);
  }
}

bool DeltaOverlayOracle::ShouldCompact() const {
  const size_t threshold = std::max(
      kMinCompactOps, static_cast<size_t>(
                          kCompactFraction *
                          static_cast<double>(base_->NumEdges())));
  return delta_.NumOps() >= threshold;
}

Result<std::shared_ptr<const DeltaOverlayOracle>>
DeltaOverlayOracle::WithUpdates(const UpdateBatch& batch) const {
  auto next = std::shared_ptr<DeltaOverlayOracle>(new DeltaOverlayOracle());
  next->inner_ = inner_;
  next->name_ = name_;
  next->owned_base_ = owned_base_;
  next->base_ = base_;
  next->delta_ = delta_;
  next->compactions_ = compactions_;
  next->scratch_ = scratch_;
  next->prefilter_ = prefilter_;
  next->snapshot_tag_ = NextSnapshotTag();
  // In-place is safe: `next` is discarded on rejection, so Apply()'s
  // atomicity scratch copy would only double the per-update delta copy.
  GTPQ_RETURN_NOT_OK(next->delta_.ApplyInPlace(*base_, batch));
  if (next->ShouldCompact()) return next->Compact();
  return std::shared_ptr<const DeltaOverlayOracle>(std::move(next));
}

Result<std::shared_ptr<const DeltaOverlayOracle>>
DeltaOverlayOracle::Compact() const {
  auto new_base = std::make_shared<const Digraph>(MaterializeGraph());
  const std::string inner_spec(inner_->name());
  auto rebuilt =
      MakeReachabilityIndex(std::string_view(inner_spec), *new_base);
  if (rebuilt == nullptr) {
    return Status::Internal("cannot rebuild inner index for spec '" +
                            inner_spec + "'");
  }
  auto next = std::shared_ptr<DeltaOverlayOracle>(new DeltaOverlayOracle());
  next->inner_ =
      std::shared_ptr<const ReachabilityOracle>(std::move(rebuilt));
  next->name_ = name_;
  next->owned_base_ = new_base;
  next->base_ = new_base.get();
  next->delta_ = GraphDelta(new_base->NumNodes());
  next->compactions_ = compactions_ + 1;
  next->scratch_ = scratch_;
  next->prefilter_ = prefilter_;
  next->snapshot_tag_ = NextSnapshotTag();
  return std::shared_ptr<const DeltaOverlayOracle>(std::move(next));
}

}  // namespace gtpq

#include "reachability/boundary_closure.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "common/logging.h"
#include "storage/serializer.h"

namespace gtpq {

namespace {

constexpr uint32_t kNotBoundary = static_cast<uint32_t>(-1);
constexpr uint64_t kNoEpoch = static_cast<uint64_t>(-1);

bool TestBit(std::span<const uint64_t> bits, uint32_t i) {
  return (bits[i >> 6] >> (i & 63)) & 1;
}

void SetBit(std::vector<uint64_t>* bits, uint32_t i) {
  (*bits)[i >> 6] |= uint64_t{1} << (i & 63);
}

void OrInto(std::span<const uint64_t> row, std::vector<uint64_t>* acc) {
  for (size_t w = 0; w < row.size(); ++w) (*acc)[w] |= row[w];
}

/// Calls f(i) for every set bit i of `bits`.
template <typename Word, typename F>
void ForEachBit(std::span<const Word> bits, F&& f) {
  constexpr size_t kBits = sizeof(Word) * 8;
  for (size_t w = 0; w < bits.size(); ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      f(static_cast<uint32_t>(w * kBits + __builtin_ctzll(word)));
    }
  }
}
template <typename Word, typename F>
void ForEachBit(const std::vector<Word>& bits, F&& f) {
  ForEachBit(std::span<const Word>(bits), std::forward<F>(f));
}

// std::pair is not trivially copyable under libstdc++, so pair vectors
// are flattened to interleaved u32 runs for the pod-vector codec.
std::vector<uint32_t> FlattenPairs(
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs) {
  std::vector<uint32_t> flat;
  flat.reserve(pairs.size() * 2);
  for (const auto& [a, b] : pairs) {
    flat.push_back(a);
    flat.push_back(b);
  }
  return flat;
}

Status UnflattenPairs(const std::vector<uint32_t>& flat,
                      std::vector<std::pair<uint32_t, uint32_t>>* out) {
  if (flat.size() % 2 != 0) {
    return Status::ParseError("partition layout has an odd-length pair run");
  }
  out->clear();
  out->reserve(flat.size() / 2);
  for (size_t i = 0; i < flat.size(); i += 2) {
    out->emplace_back(flat[i], flat[i + 1]);
  }
  return Status::OK();
}

}  // namespace

// -------------------------------------------------------------- layout

Status BoundaryLayout::Validate() const {
  const auto fail = [](const std::string& what) {
    return Status::ParseError("partition layout " + what);
  };
  using std::to_string;
  if (shard_starts.size() < 2) return fail("has no shards");
  if (shard_starts.front() != 0) {
    return fail("leaves vertex 0 uncovered (first cut " +
                to_string(shard_starts.front()) + ")");
  }
  for (size_t s = 1; s < shard_starts.size(); ++s) {
    if (shard_starts[s] < shard_starts[s - 1]) {
      return fail("has overlapping shards (cut " + to_string(s) +
                  " precedes cut " + to_string(s - 1) + ")");
    }
  }
  for (size_t i = 0; i < boundary.size(); ++i) {
    if (boundary[i] >= shard_starts.back() ||
        (i > 0 && boundary[i] <= boundary[i - 1])) {
      return fail("boundary is not strictly ascending within the graph");
    }
  }
  for (const auto& [x, y] : cross_edges) {
    if (!std::binary_search(boundary.begin(), boundary.end(), x) ||
        !std::binary_search(boundary.begin(), boundary.end(), y)) {
      return fail("cross edge " + to_string(x) + " -> " + to_string(y) +
                  " does not join two boundary vertices");
    }
  }
  if (contributions.size() != shard_starts.size() - 1) {
    return fail("has " + to_string(contributions.size()) +
                " contribution lists for " +
                to_string(shard_starts.size() - 1) + " shards");
  }
  for (const auto& contribution : contributions) {
    for (const auto& [a, b] : contribution) {
      if (std::max(a, b) >= boundary.size()) {
        return fail("contribution names boundary index " +
                    to_string(std::max(a, b)) + " of " +
                    to_string(boundary.size()));
      }
    }
  }
  if (closure == nullptr) return fail("has no overlay closure");
  if (closure->NumNodes() != boundary.size()) {
    return fail("overlay closure covers " + to_string(closure->NumNodes()) +
                " of " + to_string(boundary.size()) + " boundary vertices");
  }
  return Status::OK();
}

void BoundaryLayout::Save(storage::Writer* w) const {
  w->WritePodVec(std::vector<uint64_t>(shard_starts.begin(),
                                       shard_starts.end()));
  w->WritePodVec(boundary);
  w->WritePodVec(FlattenPairs(cross_edges));
  std::vector<std::vector<uint32_t>> flat_contributions;
  for (const auto& contribution : contributions) {
    flat_contributions.push_back(FlattenPairs(contribution));
  }
  w->WriteNestedVec(flat_contributions);
  if (closure != nullptr) {
    closure->SaveBody(w);
  } else {
    Digraph empty(0);
    empty.Finalize();
    TransitiveClosure::Build(empty).SaveBody(w);
  }
}

Status BoundaryLayout::Load(storage::Reader* r, BoundaryLayout* out) {
  std::vector<uint64_t> starts;
  GTPQ_RETURN_NOT_OK(r->ReadPodVec(&starts));
  out->shard_starts.assign(starts.begin(), starts.end());
  GTPQ_RETURN_NOT_OK(r->ReadPodVec(&out->boundary));
  std::vector<uint32_t> flat;
  GTPQ_RETURN_NOT_OK(r->ReadPodVec(&flat));
  GTPQ_RETURN_NOT_OK(UnflattenPairs(flat, &out->cross_edges));
  std::vector<std::vector<uint32_t>> flat_contributions;
  GTPQ_RETURN_NOT_OK(r->ReadNestedVec(&flat_contributions));
  out->contributions.resize(flat_contributions.size());
  for (size_t s = 0; s < flat_contributions.size(); ++s) {
    GTPQ_RETURN_NOT_OK(
        UnflattenPairs(flat_contributions[s], &out->contributions[s]));
  }
  auto closure = TransitiveClosure::LoadBody(r);
  GTPQ_RETURN_NOT_OK(closure.status());
  out->closure =
      std::make_shared<const TransitiveClosure>(closure.TakeValue());
  return Status::OK();
}

void AnswerShardProbe(const ReachabilityOracle& oracle, bool reverse,
                      std::span<const NodeId> pivots,
                      std::span<const NodeId> ids,
                      std::vector<uint8_t>* bits) {
  const size_t cols = ids.size();
  bits->assign((pivots.size() * cols + 7) / 8, 0);
  // The prepared side is the one reached: ids going forward, pivots in
  // reverse. SuccessorsAmong wants it sorted, so scan a sorted copy and
  // map hits back through the permutation.
  const std::span<const NodeId> reached = reverse ? pivots : ids;
  const std::span<const NodeId> sources = reverse ? ids : pivots;
  std::vector<uint32_t> order;
  std::vector<NodeId> sorted;
  const bool in_order = std::is_sorted(reached.begin(), reached.end());
  if (!in_order) {
    order.resize(reached.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                       return reached[a] < reached[b];
                     });
    sorted.resize(reached.size());
    for (size_t i = 0; i < order.size(); ++i) sorted[i] = reached[order[i]];
  }
  const auto prepared =
      oracle.PrepareSuccessorTargets(in_order ? reached : sorted);
  std::vector<uint32_t> hits;
  for (size_t s = 0; s < sources.size(); ++s) {
    hits.clear();
    oracle.SuccessorsAmong(sources[s], *prepared, &hits);
    for (const uint32_t h : hits) {
      const size_t t = in_order ? h : order[h];
      const size_t bit = reverse ? t * cols + s : s * cols + t;
      (*bits)[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
    }
  }
}

// ----------------------------------------------------------- internals

/// The overlay closure C over boundary indices, worked on through its
/// condensation: bitsets over C's components, `words` wide.
struct BoundaryClosure::Overlay {
  std::shared_ptr<const TransitiveClosure> closure;
  size_t words = 0;
  // Transposed closure rows, built on the first target summary (point
  // probes never need them): row c holds every component that reaches
  // c by a path of length >= 1 (c itself iff it is cyclic).
  mutable std::once_flag backward_once;
  mutable std::vector<uint64_t> backward;

  uint32_t Component(uint32_t b) const { return closure->ComponentOf(b); }
  /// ORs every component reached from (forward) or reaching (backward)
  /// component c into `acc`.
  void OrForward(uint32_t c, std::vector<uint64_t>* acc) const {
    OrInto(closure->ComponentRow(c), acc);
    if (closure->ComponentCyclic(c)) SetBit(acc, c);
  }
  void OrBackward(uint32_t c, std::vector<uint64_t>* acc) const {
    std::call_once(backward_once, [this] { Transpose(); });
    OrInto({backward.data() + c * words, words}, acc);
  }
  void Transpose() const {
    const size_t comps = closure->NumComponents();
    backward.assign(comps * words, 0);
    for (uint32_t c = 0; c < comps; ++c) {
      const uint64_t bit = uint64_t{1} << (c & 63);
      ForEachBit(closure->ComponentRow(c), [&](uint32_t d) {
        backward[d * words + (c >> 6)] |= bit;
      });
      if (closure->ComponentCyclic(c)) backward[c * words + (c >> 6)] |= bit;
    }
  }
  /// The fold: does boundary `entry` lie in `reach`, the components
  /// ORed forward from a node's exits?
  bool Reached(std::span<const uint64_t> reach, uint32_t entry) const {
    return TestBit(reach, Component(entry));
  }
};

/// Target or source summary. Members stay in caller order (successor
/// indices refer to it); `order` lists them by ascending id, which
/// groups them by shard.
class BoundaryClosure::BoundarySet : public ReachabilityOracle::SetSummary {
 public:
  std::vector<NodeId> members;
  std::vector<uint32_t> order;
  std::vector<uint32_t> shard_begin;  // num_shards + 1 offsets into order
  /// Entries closed backward (targets) or exits closed forward
  /// (sources), as a bitset over the overlay's components.
  std::vector<uint64_t> closed;
  /// Successor targets only: per member, its entries (CSR).
  std::vector<uint32_t> entry_begin;
  std::vector<uint32_t> entries;
  /// Per shard, the epoch its probe was answered at (kNoEpoch: none).
  std::vector<uint64_t> epochs;
  std::shared_ptr<const Overlay> overlay;

  bool Closed(uint32_t b) const {
    return TestBit(closed, overlay->Component(b));
  }
};

/// How one planned probe's answers map back: row r answers caller pivot
/// rows[r]; counts[k][c] says whether column c answers for set k (a
/// boundary in its closed set, or one of its members).
struct BoundaryClosure::Columns {
  std::vector<uint32_t> rows;
  std::vector<std::vector<char>> counts;
};

// ------------------------------------------------------- boundaries

void BoundaryClosure::InitBoundaries(BoundaryLayout layout) {
  GTPQ_CHECK(layout.shard_starts.size() >= 2);
  shard_starts_ = std::move(layout.shard_starts);
  boundary_ = std::move(layout.boundary);
  cross_edges_ = std::move(layout.cross_edges);
  const size_t shards = NumShards();
  shard_bstart_.resize(shards + 1);
  for (size_t s = 0; s <= shards; ++s) {
    shard_bstart_[s] = static_cast<uint32_t>(
        std::lower_bound(boundary_.begin(), boundary_.end(),
                         shard_starts_[s]) -
        boundary_.begin());
  }
  cross_b_.clear();
  cross_b_.reserve(cross_edges_.size());
  for (const auto& [x, y] : cross_edges_) {
    cross_b_.emplace_back(BoundaryIndex(x), BoundaryIndex(y));
    GTPQ_DCHECK(cross_b_.back().first != kNotBoundary &&
                cross_b_.back().second != kNotBoundary);
  }

  std::lock_guard<std::mutex> lock(mu_);
  contributions_ = std::move(layout.contributions);
  contributions_.resize(shards);
  overlay_.reset();
  if (layout.closure != nullptr) RebuildOverlayLocked(layout.closure);
}

void BoundaryClosure::RebuildOverlayLocked(
    std::shared_ptr<const TransitiveClosure> closure) const {
  auto next = std::make_shared<Overlay>();
  if (closure != nullptr) {
    next->closure = std::move(closure);
  } else {
    Digraph graph(boundary_.size());
    for (const auto& [x, y] : cross_b_) graph.AddEdge(x, y);
    for (const auto& contribution : contributions_) {
      for (const auto& [x, y] : contribution) graph.AddEdge(x, y);
    }
    graph.Finalize();
    next->closure = std::make_shared<const TransitiveClosure>(
        TransitiveClosure::Build(graph));
  }
  next->words = (next->closure->NumComponents() + 63) / 64;
  overlay_ = std::move(next);
}

std::shared_ptr<const BoundaryClosure::Overlay> BoundaryClosure::overlay()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return overlay_;
}

BoundaryLayout BoundaryClosure::layout() const {
  BoundaryLayout out;
  out.shard_starts = shard_starts_;
  out.boundary = boundary_;
  out.cross_edges = cross_edges_;
  std::lock_guard<std::mutex> lock(mu_);
  out.contributions = contributions_;
  if (overlay_ != nullptr) out.closure = overlay_->closure;
  return out;
}

size_t BoundaryClosure::ShardOf(NodeId v) const {
  return static_cast<size_t>(
             std::upper_bound(shard_starts_.begin(), shard_starts_.end(),
                              static_cast<size_t>(v)) -
             shard_starts_.begin()) -
         1;
}

uint32_t BoundaryClosure::BoundaryIndex(NodeId v) const {
  const auto it = std::lower_bound(boundary_.begin(), boundary_.end(), v);
  return it != boundary_.end() && *it == v
             ? static_cast<uint32_t>(it - boundary_.begin())
             : kNotBoundary;
}

void BoundaryClosure::ShardBoundaryIds(size_t shard,
                                       std::vector<NodeId>* ids) const {
  ids->assign(boundary_.begin() + shard_bstart_[shard],
              boundary_.begin() + shard_bstart_[shard + 1]);
  const NodeId start = static_cast<NodeId>(shard_starts_[shard]);
  for (NodeId& id : *ids) id -= start;
}

Status BoundaryClosure::RefreshContributions(
    std::span<const size_t> shards) const {
  std::vector<ShardProbe> probes;
  for (const size_t s : shards) {
    if (shard_bstart_[s] == shard_bstart_[s + 1]) continue;
    ShardProbe probe;
    probe.shard = s;
    ShardBoundaryIds(s, &probe.ids);
    probe.pivots = probe.ids;
    probes.push_back(std::move(probe));
  }
  if (!probes.empty()) GTPQ_RETURN_NOT_OK(Probe(probes));

  std::lock_guard<std::mutex> lock(mu_);
  for (const size_t s : shards) contributions_[s].clear();
  // Row-major over the shard's boundaries. The diagonal (b -> b on an
  // intra-shard cycle) becomes an overlay self-loop, which keeps the
  // cyclic-self-reachability semantics.
  for (const ShardProbe& probe : probes) {
    const uint32_t base = shard_bstart_[probe.shard];
    auto& contribution = contributions_[probe.shard];
    for (uint32_t r = 0; r < probe.pivots.size(); ++r) {
      for (uint32_t c = 0; c < probe.ids.size(); ++c) {
        if (probe.Get(r, c)) contribution.emplace_back(base + r, base + c);
      }
    }
  }
  RebuildOverlayLocked(nullptr);
  return Status::OK();
}

void BoundaryClosure::OnProbeFailure(size_t shard,
                                     const Status& status) const {
  GTPQ_LOG(Warning) << name() << ": probe of shard " << shard
                    << " failed: " << status.ToString();
}

// ----------------------------------------------------------- summaries

std::unique_ptr<ReachabilityOracle::SetSummary>
BoundaryClosure::SummarizeTargets(std::span<const NodeId> members) const {
  return Summarize(members, /*targets=*/true);
}

std::unique_ptr<ReachabilityOracle::SetSummary>
BoundaryClosure::SummarizeSources(std::span<const NodeId> members) const {
  return Summarize(members, /*targets=*/false);
}

std::unique_ptr<ReachabilityOracle::SetSummary>
BoundaryClosure::PrepareSuccessorTargets(
    std::span<const NodeId> targets) const {
  return Summarize(targets, /*targets=*/true);
}

std::unique_ptr<ReachabilityOracle::SetSummary> BoundaryClosure::Summarize(
    std::span<const NodeId> members, bool targets) const {
  auto set = std::make_unique<BoundarySet>();
  const size_t shards = NumShards();
  set->overlay = overlay();
  set->members.assign(members.begin(), members.end());
  set->closed.assign(set->overlay->words, 0);
  set->epochs.assign(shards, kNoEpoch);
  // Out-of-range members belong to no shard and reach nothing.
  set->order.reserve(members.size());
  for (uint32_t i = 0; i < members.size(); ++i) {
    if (ShardOf(members[i]) < shards) set->order.push_back(i);
  }
  std::stable_sort(set->order.begin(), set->order.end(),
                   [&](uint32_t a, uint32_t b) {
                     return members[a] < members[b];
                   });
  set->shard_begin.resize(shards + 1);
  for (size_t s = 0; s <= shards; ++s) {
    set->shard_begin[s] = static_cast<uint32_t>(
        std::lower_bound(set->order.begin(), set->order.end(),
                         shard_starts_[s],
                         [&](uint32_t i, size_t start) {
                           return members[i] < start;
                         }) -
        set->order.begin());
  }

  // Targets: which boundaries reach each member (its entries). Sources:
  // which boundaries each member reaches (its exits). One probe per
  // shard holding members and boundaries.
  std::vector<ShardProbe> probes;
  for (size_t s = 0; s < shards; ++s) {
    if (set->shard_begin[s] == set->shard_begin[s + 1] ||
        shard_bstart_[s] == shard_bstart_[s + 1]) {
      continue;
    }
    ShardProbe probe;
    probe.shard = s;
    probe.reverse = targets;
    for (uint32_t i = set->shard_begin[s]; i < set->shard_begin[s + 1]; ++i) {
      probe.pivots.push_back(LocalId(members[set->order[i]], s));
    }
    ShardBoundaryIds(s, &probe.ids);
    probes.push_back(std::move(probe));
  }
  // A failed build leaves an empty summary: every probe answers false.
  if (!RunProbes(probes, {})) return Summarize({}, targets);

  // (member, boundary) pairs: the probed ones, plus every boundary
  // member as its own zero-length entry or exit.
  const Overlay& overlay = *set->overlay;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (const ShardProbe& probe : probes) {
    set->epochs[probe.shard] = probe.epoch;
    const uint32_t first = set->shard_begin[probe.shard];
    const uint32_t base = shard_bstart_[probe.shard];
    for (uint32_t r = 0; r < probe.pivots.size(); ++r) {
      for (uint32_t c = 0; c < probe.ids.size(); ++c) {
        if (probe.Get(r, c)) pairs.emplace_back(set->order[first + r], base + c);
      }
    }
  }
  for (const uint32_t i : set->order) {
    const uint32_t b = BoundaryIndex(members[i]);
    if (b != kNotBoundary) pairs.emplace_back(i, b);
  }

  // Close the seeds, one row per seed component: targets keep every
  // component that reaches an entry, sources every one an exit reaches.
  std::vector<uint64_t> seeds(overlay.words, 0);
  for (const auto& [i, b] : pairs) SetBit(&seeds, overlay.Component(b));
  ForEachBit(seeds, [&](uint32_t c) {
    if (targets) {
      overlay.OrBackward(c, &set->closed);
    } else {
      overlay.OrForward(c, &set->closed);
    }
  });
  if (targets) {
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    set->entry_begin.assign(members.size() + 1, 0);
    for (const auto& [i, b] : pairs) ++set->entry_begin[i + 1];
    std::partial_sum(set->entry_begin.begin(), set->entry_begin.end(),
                     set->entry_begin.begin());
    set->entries.reserve(pairs.size());
    for (const auto& [i, b] : pairs) set->entries.push_back(b);
  }
  return set;
}

// -------------------------------------------------------------- probes

Status BoundaryClosure::Probe(std::span<ShardProbe> probes) const {
  // Every answer one shard gives a call must come from one epoch.
  const auto check_epochs = [&](std::span<const ShardProbe> answered) {
    std::vector<uint64_t> epoch(NumShards(), kNoEpoch);
    for (const ShardProbe& a : answered) {
      if (epoch[a.shard] != kNoEpoch && epoch[a.shard] != a.epoch) {
        const Status status = Status::FailedPrecondition(
            "shard answered one call at epochs " +
            std::to_string(epoch[a.shard]) + " and " +
            std::to_string(a.epoch));
        OnProbeFailure(a.shard, status);
        return status;
      }
      epoch[a.shard] = a.epoch;
    }
    return Status::OK();
  };
  // Tile shape: at most half the node budget in columns, then as many
  // rows as both budgets leave.
  const ProbeLimits limits = probe_limits();
  const auto steps = [&limits](const ShardProbe& probe) {
    const size_t col_step = std::max<size_t>(
        1, std::min(probe.ids.size(), limits.max_nodes / 2));
    const size_t row_room =
        limits.max_nodes > col_step ? limits.max_nodes - col_step : 1;
    const size_t row_step = std::max<uint64_t>(
        1, std::min<uint64_t>({probe.pivots.size(),
                               limits.max_cells / col_step, row_room}));
    return std::pair{row_step, col_step};
  };
  bool split = false;
  for (const ShardProbe& probe : probes) {
    const auto [row_step, col_step] = steps(probe);
    split |= row_step < probe.pivots.size() || col_step < probe.ids.size();
  }
  if (!split) {
    GTPQ_RETURN_NOT_OK(ProbeShards(probes));
    return check_epochs(probes);
  }

  struct Tile {
    size_t probe, row0, col0;
  };
  std::vector<ShardProbe> tiles;
  std::vector<Tile> origin;
  for (size_t p = 0; p < probes.size(); ++p) {
    const ShardProbe& probe = probes[p];
    const auto [row_step, col_step] = steps(probe);
    for (size_t r = 0; r < probe.pivots.size(); r += row_step) {
      for (size_t c = 0; c < probe.ids.size(); c += col_step) {
        ShardProbe tile;
        tile.shard = probe.shard;
        tile.reverse = probe.reverse;
        const auto pivots = probe.pivots.begin() + r;
        const auto ids = probe.ids.begin() + c;
        tile.pivots.assign(pivots,
                           pivots + std::min(row_step, probe.pivots.size() - r));
        tile.ids.assign(ids, ids + std::min(col_step, probe.ids.size() - c));
        tiles.push_back(std::move(tile));
        origin.push_back({p, r, c});
      }
    }
  }
  GTPQ_RETURN_NOT_OK(ProbeShards(tiles));
  GTPQ_RETURN_NOT_OK(check_epochs(tiles));
  for (ShardProbe& probe : probes) {
    probe.bits.assign((probe.pivots.size() * probe.ids.size() + 7) / 8, 0);
  }
  for (size_t t = 0; t < tiles.size(); ++t) {
    const ShardProbe& tile = tiles[t];
    ShardProbe& probe = probes[origin[t].probe];
    probe.epoch = tile.epoch;
    for (size_t r = 0; r < tile.pivots.size(); ++r) {
      for (size_t c = 0; c < tile.ids.size(); ++c) {
        if (!tile.Get(r, c)) continue;
        const size_t bit =
            (origin[t].row0 + r) * probe.ids.size() + origin[t].col0 + c;
        probe.bits[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
      }
    }
  }
  return Status::OK();
}

bool BoundaryClosure::RunProbes(
    std::span<ShardProbe> probes,
    std::span<const BoundarySet* const> sets) const {
  if (probes.empty()) return true;
  if (!Probe(probes).ok()) return false;
  for (const ShardProbe& probe : probes) {
    for (const BoundarySet* set : sets) {
      const uint64_t recorded = set->epochs[probe.shard];
      if (recorded != kNoEpoch && recorded != probe.epoch) {
        OnProbeFailure(
            probe.shard,
            Status::FailedPrecondition(
                "answered at epoch " + std::to_string(probe.epoch) +
                ", but the summary in use was built at epoch " +
                std::to_string(recorded)));
        return false;
      }
    }
  }
  return true;
}

void BoundaryClosure::PlanProbes(bool reverse,
                                 std::span<const NodeId> pivots,
                                 std::span<const BoundarySet* const> sets,
                                 std::vector<ShardProbe>* probes,
                                 std::vector<Columns>* columns) const {
  const size_t shards = NumShards();
  std::vector<std::vector<uint32_t>> rows(shards);
  for (uint32_t i = 0; i < pivots.size(); ++i) {
    const size_t s = ShardOf(pivots[i]);
    if (s < shards) rows[s].push_back(i);
  }
  for (size_t s = 0; s < shards; ++s) {
    if (rows[s].empty()) continue;
    // Columns: the shard's boundaries in some closed set, then every
    // set's members in the shard; sorted and unique.
    ShardProbe probe;
    probe.shard = s;
    probe.reverse = reverse;
    for (uint32_t b = shard_bstart_[s]; b < shard_bstart_[s + 1]; ++b) {
      for (const BoundarySet* set : sets) {
        if (set->Closed(b)) {
          probe.ids.push_back(LocalId(boundary_[b], s));
          break;
        }
      }
    }
    for (const BoundarySet* set : sets) {
      for (uint32_t i = set->shard_begin[s]; i < set->shard_begin[s + 1];
           ++i) {
        probe.ids.push_back(LocalId(set->members[set->order[i]], s));
      }
    }
    if (probe.ids.empty()) continue;  // nothing here can contribute
    std::sort(probe.ids.begin(), probe.ids.end());
    probe.ids.erase(std::unique(probe.ids.begin(), probe.ids.end()),
                    probe.ids.end());

    Columns cols;
    cols.counts.assign(sets.size(), std::vector<char>(probe.ids.size(), 0));
    const auto col_of = [&probe](NodeId local) {
      return static_cast<size_t>(
          std::lower_bound(probe.ids.begin(), probe.ids.end(), local) -
          probe.ids.begin());
    };
    for (size_t k = 0; k < sets.size(); ++k) {
      const BoundarySet& set = *sets[k];
      for (uint32_t b = shard_bstart_[s]; b < shard_bstart_[s + 1]; ++b) {
        if (set.Closed(b)) {
          cols.counts[k][col_of(LocalId(boundary_[b], s))] = 1;
        }
      }
      for (uint32_t i = set.shard_begin[s]; i < set.shard_begin[s + 1];
           ++i) {
        cols.counts[k][col_of(LocalId(set.members[set.order[i]], s))] = 1;
      }
    }
    for (const uint32_t i : rows[s]) {
      probe.pivots.push_back(LocalId(pivots[i], s));
    }
    cols.rows = std::move(rows[s]);
    probes->push_back(std::move(probe));
    columns->push_back(std::move(cols));
  }
}

void BoundaryClosure::ProbeSets(bool reverse, std::span<const NodeId> pivots,
                                std::span<const BoundarySet* const> sets,
                                std::vector<std::vector<char>>* out) const {
  out->assign(sets.size(), std::vector<char>(pivots.size(), 0));
  stats().queries += pivots.size() * sets.size();
  std::vector<ShardProbe> probes;
  std::vector<Columns> columns;
  PlanProbes(reverse, pivots, sets, &probes, &columns);
  if (!RunProbes(probes, sets)) return;

  // A boundary pivot is its own zero-length exit (forward) or entry
  // (reverse).
  for (uint32_t i = 0; i < pivots.size(); ++i) {
    const uint32_t b = BoundaryIndex(pivots[i]);
    if (b == kNotBoundary) continue;
    for (size_t k = 0; k < sets.size(); ++k) {
      if (sets[k]->Closed(b)) (*out)[k][i] = 1;
    }
  }
  for (size_t p = 0; p < probes.size(); ++p) {
    const ShardProbe& probe = probes[p];
    const Columns& cols = columns[p];
    for (size_t r = 0; r < cols.rows.size(); ++r) {
      for (size_t k = 0; k < sets.size(); ++k) {
        char& hit = (*out)[k][cols.rows[r]];
        const std::vector<char>& counts = cols.counts[k];
        for (size_t c = 0; c < probe.ids.size() && !hit; ++c) {
          if (counts[c] && probe.Get(r, c)) hit = 1;
        }
      }
    }
  }
}

bool BoundaryClosure::Reaches(NodeId from, NodeId to) const {
  ++stats().queries;
  const size_t sf = ShardOf(from);
  const size_t st = ShardOf(to);
  if (sf >= NumShards() || st >= NumShards()) return false;
  const auto overlay_ptr = overlay();
  const Overlay& overlay = *overlay_ptr;

  // Two probes: `from` against its shard's boundaries (its exits) and,
  // on a shared shard, `to` itself; `to` against its shard's boundaries
  // (its entries). When probes cost round trips both go out at once;
  // otherwise the entries are probed only if the exits leave the
  // answer open.
  ShardProbe probes[2];
  ShardProbe& forward = probes[0];
  ShardProbe& reverse = probes[1];
  forward.shard = sf;
  forward.pivots = {LocalId(from, sf)};
  ShardBoundaryIds(sf, &forward.ids);
  // `to` joins the sorted ids at column to_col (inserted unless it is
  // a boundary); boundary columns past it shift by one.
  size_t to_col = 0;
  bool inserted = false;
  if (sf == st) {
    const NodeId local = LocalId(to, st);
    const auto it =
        std::lower_bound(forward.ids.begin(), forward.ids.end(), local);
    to_col = static_cast<size_t>(it - forward.ids.begin());
    inserted = it == forward.ids.end() || *it != local;
    if (inserted) forward.ids.insert(it, local);
  }
  if (forward.ids.empty()) return false;  // `from` cannot leave
  reverse.shard = st;
  reverse.reverse = true;
  reverse.pivots = {LocalId(to, st)};
  const bool has_entries = shard_bstart_[st] < shard_bstart_[st + 1];
  const bool together = has_entries && probes_cost_round_trips();
  if (together) ShardBoundaryIds(st, &reverse.ids);
  if (!Probe({probes, together ? 2u : 1u}).ok()) return false;
  if (sf == st && forward.Get(0, to_col)) return true;
  if (!has_entries) return false;

  // The fold: OR the overlay rows of every exit, then look for an
  // entry among them.
  std::vector<uint64_t> reach(overlay.words, 0);
  bool any_exit = false;
  const auto add_exit = [&](uint32_t b) {
    overlay.OrForward(overlay.Component(b), &reach);
    any_exit = true;
  };
  if (const uint32_t b = BoundaryIndex(from); b != kNotBoundary) add_exit(b);
  ForEachBit(forward.bits, [&](size_t c) {
    if (inserted && c == to_col) return;
    add_exit(shard_bstart_[sf] +
             static_cast<uint32_t>(inserted && c > to_col ? c - 1 : c));
  });
  if (!any_exit) return false;
  if (const uint32_t b = BoundaryIndex(to);
      b != kNotBoundary && overlay.Reached(reach, b)) {
    return true;
  }
  if (!together) {
    ShardBoundaryIds(st, &reverse.ids);
    if (!Probe({&reverse, 1}).ok()) return false;
  }
  bool hit = false;
  ForEachBit(reverse.bits, [&](size_t c) {
    hit = hit || overlay.Reached(
                     reach, shard_bstart_[st] + static_cast<uint32_t>(c));
  });
  return hit;
}

bool BoundaryClosure::ReachesSet(NodeId from,
                                 const SetSummary& targets) const {
  const SetSummary* sets[] = {&targets};
  std::vector<std::vector<char>> out;
  ReachesSetsBatch({&from, 1}, sets, &out);
  return out[0][0] != 0;
}

bool BoundaryClosure::SetReaches(const SetSummary& sources,
                                 NodeId to) const {
  std::vector<char> out;
  SetReachesBatch(sources, {&to, 1}, &out);
  return out[0] != 0;
}

void BoundaryClosure::ReachesSetsBatch(
    std::span<const NodeId> sources,
    std::span<const SetSummary* const> target_sets,
    std::vector<std::vector<char>>* out) const {
  std::vector<const BoundarySet*> sets;
  sets.reserve(target_sets.size());
  for (const SetSummary* s : target_sets) {
    sets.push_back(static_cast<const BoundarySet*>(s));
  }
  ProbeSets(/*reverse=*/false, sources, sets, out);
}

void BoundaryClosure::SetReachesBatch(const SetSummary& sources,
                                      std::span<const NodeId> targets,
                                      std::vector<char>* out) const {
  const BoundarySet* sets[] = {static_cast<const BoundarySet*>(&sources)};
  std::vector<std::vector<char>> masks;
  ProbeSets(/*reverse=*/true, targets, sets, &masks);
  *out = std::move(masks[0]);
}

void BoundaryClosure::SuccessorsAmong(NodeId from,
                                      const SetSummary& targets,
                                      std::vector<uint32_t>* out) const {
  const auto& set = static_cast<const BoundarySet&>(targets);
  ++stats().queries;
  const size_t s = ShardOf(from);
  if (s >= NumShards()) return;
  const BoundarySet* sets[] = {&set};
  std::vector<ShardProbe> probes;
  std::vector<Columns> columns;
  PlanProbes(/*reverse=*/false, {&from, 1}, sets, &probes, &columns);
  if (!RunProbes(probes, sets)) return;

  // Boundaries reachable through the overlay from an exit of `from`
  // (only exits in the closed set can reach an entry).
  const Overlay& overlay = *set.overlay;
  std::vector<uint64_t> reach(overlay.words, 0);
  bool any_exit = false;
  const auto add_exit = [&](uint32_t b) {
    if (b == kNotBoundary || !set.Closed(b)) return;
    overlay.OrForward(overlay.Component(b), &reach);
    any_exit = true;
  };
  add_exit(BoundaryIndex(from));
  std::vector<char> hit(set.members.size(), 0);
  if (!probes.empty()) {
    const ShardProbe& probe = probes[0];
    const NodeId start = static_cast<NodeId>(shard_starts_[s]);
    for (size_t c = 0; c < probe.ids.size(); ++c) {
      if (probe.Get(0, c)) add_exit(BoundaryIndex(probe.ids[c] + start));
    }
    for (uint32_t i = set.shard_begin[s]; i < set.shard_begin[s + 1]; ++i) {
      const uint32_t m = set.order[i];
      const auto it = std::lower_bound(probe.ids.begin(), probe.ids.end(),
                                       LocalId(set.members[m], s));
      if (probe.Get(0, static_cast<size_t>(it - probe.ids.begin()))) {
        hit[m] = 1;
      }
    }
  }
  for (uint32_t m = 0; m < set.members.size(); ++m) {
    if (!hit[m] && any_exit) {
      for (uint32_t e = set.entry_begin[m]; e < set.entry_begin[m + 1]; ++e) {
        if (overlay.Reached(reach, set.entries[e])) {
          hit[m] = 1;
          break;
        }
      }
    }
    if (hit[m]) out->push_back(m);
  }
}

}  // namespace gtpq

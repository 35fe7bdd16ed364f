#ifndef GTPQ_REACHABILITY_BOUNDARY_CLOSURE_H_
#define GTPQ_REACHABILITY_BOUNDARY_CLOSURE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "reachability/reachability_index.h"
#include "reachability/transitive_closure.h"

namespace gtpq {

namespace storage {
class Writer;
class Reader;
}  // namespace storage

/// One shard's intra-shard reachability question, pivots x ids, and its
/// answer. Bit (r, c) of the row-major `bits` answers "does pivots[r]
/// reach ids[c]?" (or "does ids[c] reach pivots[r]?" when `reverse`),
/// over paths that stay inside the shard. Node ids are shard-local.
struct ShardProbe {
  size_t shard = 0;
  bool reverse = false;
  std::vector<NodeId> pivots;
  std::vector<NodeId> ids;
  /// Filled by the prober: the epoch the shard answered at, and
  /// (pivots.size() * ids.size() + 7) / 8 bytes of answers.
  uint64_t epoch = 0;
  std::vector<uint8_t> bits;

  bool Get(size_t row, size_t col) const {
    const size_t i = row * ids.size() + col;
    return (bits[i / 8] >> (i % 8)) & 1;
  }
};

/// The most one probe may ask: at most `max_cells` answers (pivots x
/// ids) and `max_nodes` listed nodes (pivots + ids). Larger probes are
/// split into row and column tiles before they reach the prober.
struct ProbeLimits {
  uint64_t max_cells = std::numeric_limits<uint64_t>::max();
  size_t max_nodes = std::numeric_limits<size_t>::max();
};

/// Answers a pivots x ids probe against `oracle` through its own set
/// API: the forward side's ids (the reverse side's pivots) become one
/// prepared successor-target list, scanned once per source. Fills
/// `bits` in ShardProbe's layout. Ids must lie in the oracle's graph.
void AnswerShardProbe(const ReachabilityOracle& oracle, bool reverse,
                      std::span<const NodeId> pivots,
                      std::span<const NodeId> ids,
                      std::vector<uint8_t>* bits);

/// The layout of a contiguous-range vertex partition: its cut points and
/// boundary machinery. The `sharded:` index section and the `.gtpqmap`
/// body both persist it through this one codec and validator.
struct BoundaryLayout {
  /// num_shards + 1 ascending cut points; the last is the node count.
  std::vector<size_t> shard_starts;
  /// Endpoints of shard-crossing edges, ascending global ids.
  std::vector<NodeId> boundary;
  std::vector<std::pair<NodeId, NodeId>> cross_edges;
  /// Per shard, intra-shard boundary-to-boundary reachability as
  /// boundary-index pairs (row-major over the shard's boundaries).
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> contributions;
  /// Closure of cross edges + contributions over boundary indices; may
  /// be null (see InitBoundaries).
  std::shared_ptr<const TransitiveClosure> closure;

  /// ParseError naming the first broken rule: the cut points tile
  /// [0, n) (at least one shard, first cut 0, ascending; n is the last
  /// cut), boundaries are strictly ascending and below n, every cross
  /// edge joins two boundaries, there is one contribution list per
  /// shard and it names only boundaries, and the closure is present and
  /// covers the boundary.
  Status Validate() const;

  /// The codec, in the pod_align layout:
  ///   vec  cut points (u64)
  ///   vec  boundary vertices (u32 global ids)
  ///   vec  cross edges (interleaved u32 pairs)
  ///   nested vec  per-shard contributions (interleaved u32 pairs)
  ///   ...  closure (TransitiveClosure::SaveBody)
  /// A null closure is written as the closure of the empty graph.
  void Save(storage::Writer* w) const;
  /// Reads what Save wrote, without validating it.
  static Status Load(storage::Reader* r, BoundaryLayout* out);
};

/// Partitioned reachability from per-shard answers and a boundary
/// overlay, shared by the in-process ShardedOracle and the cluster
/// ShardRouter. Subclasses supply only the prober seam (ProbeShards):
/// local sub-indexes, or PROBE frames to shard servers.
///
/// Reaches(u, v) holds iff v is intra-shard reachable from u, or some
/// exit of u reaches some entry of v through the overlay closure C.
/// The exits of u are the boundaries of u's shard that u reaches
/// intra-shard, plus u itself when it is a boundary; the entries of v
/// are the boundaries of v's shard that reach v intra-shard, plus v.
/// The overlay holds the cross edges and an edge b -> b' whenever b'
/// is intra-shard reachable from b, so C contracts every cross-shard
/// path; paths of length >= 1 only, so Reaches(v, v) still needs a
/// cycle.
///
/// The whole set API is native and set-at-a-time. A target summary
/// keeps the union of its members' entries closed backward through C;
/// a source summary keeps the union of its members' exits closed
/// forward. Building one sends one probe to each shard holding members
/// (and boundaries). A batched probe sends one probe to each shard
/// holding probed nodes, whose ids are the shard's boundaries in some
/// summary's closed set plus its same-shard members; a shard with
/// neither gets no probe at all. Reaches probes u against its shard's
/// boundaries and v's shard's boundaries against v (together when
/// probes_cost_round_trips()) and folds exits x entries. A
/// probe larger than probe_limits() goes out as several tiles, so
/// "one probe" means one per tile.
///
/// Closed sets and the fold work on the condensation of C: a bitset
/// over its strongly connected components, grown by ORing one closure
/// row (forward) or one transposed row (backward) per seed component.
///
/// Failures: bool answers have no error channel. A failed probe, or a
/// probe answered at an epoch other than the one a summary's probes
/// recorded for that shard, is reported through OnProbeFailure and the
/// whole call answers false (an empty successor list).
///
/// Thread safety: probes and summaries may be used from any number of
/// threads. RefreshContributions swaps the overlay atomically; callers
/// must still keep it from racing probes that need a stable answer.
class BoundaryClosure : public ReachabilityOracle {
 public:
  bool Reaches(NodeId from, NodeId to) const override;

  std::unique_ptr<SetSummary> SummarizeTargets(
      std::span<const NodeId> members) const override;
  std::unique_ptr<SetSummary> SummarizeSources(
      std::span<const NodeId> members) const override;
  bool ReachesSet(NodeId from, const SetSummary& targets) const override;
  bool SetReaches(const SetSummary& sources, NodeId to) const override;
  void ReachesSetsBatch(std::span<const NodeId> sources,
                        std::span<const SetSummary* const> target_sets,
                        std::vector<std::vector<char>>* out) const override;
  void SetReachesBatch(const SetSummary& sources,
                       std::span<const NodeId> targets,
                       std::vector<char>* out) const override;
  std::unique_ptr<SetSummary> PrepareSuccessorTargets(
      std::span<const NodeId> targets) const override;
  void SuccessorsAmong(NodeId from, const SetSummary& targets,
                       std::vector<uint32_t>* out) const override;

  size_t NumShards() const { return shard_starts_.size() - 1; }
  /// Owning shard of `v`; NumShards() when v is past the last shard.
  size_t ShardOf(NodeId v) const;
  const std::vector<size_t>& shard_starts() const { return shard_starts_; }
  const std::vector<NodeId>& boundary_vertices() const { return boundary_; }
  /// A copy of the installed layout, with the current contributions and
  /// overlay closure.
  BoundaryLayout layout() const;

 protected:
  BoundaryClosure() = default;

  /// Installs `layout`, which must pass Validate() except that its
  /// closure may be null: then the first RefreshContributions (over
  /// every shard) builds the overlay, and no probe may run before.
  void InitBoundaries(BoundaryLayout layout);

  /// Re-probes the boundary-to-boundary reachability of `shards` (one
  /// probe each, pivots = ids = the shard's boundaries), then rebuilds
  /// the overlay closure. On a failed probe nothing changes.
  Status RefreshContributions(std::span<const size_t> shards) const;

  NodeId LocalId(NodeId v, size_t shard) const {
    return v - static_cast<NodeId>(shard_starts_[shard]);
  }

  /// The prober seam: answer every probe, filling its epoch and bits.
  /// Several probes may go to one shard; none exceeds probe_limits().
  /// A failed shard is reported through OnProbeFailure (once per shard
  /// and call) by the implementation before it returns the error.
  virtual Status ProbeShards(std::span<ShardProbe> probes) const = 0;
  /// What one probe may carry; unlimited unless a subclass has a frame
  /// budget.
  virtual ProbeLimits probe_limits() const { return {}; }
  /// True when each ProbeShards call costs a round trip, so Reaches
  /// sends its exit and entry probes together; false (local answers)
  /// lets it skip the entry probe when the exits decide.
  virtual bool probes_cost_round_trips() const { return false; }
  /// Called once per failed probe or epoch mismatch. Logs a warning;
  /// the router also drops the connection and counts the failure.
  virtual void OnProbeFailure(size_t shard, const Status& status) const;

 private:
  struct Overlay;
  class BoundarySet;
  struct Columns;

  std::unique_ptr<SetSummary> Summarize(std::span<const NodeId> members,
                                        bool targets) const;
  /// Tiles `probes` to probe_limits(), runs the tiles through
  /// ProbeShards in one call, and reassembles the answers. Fails
  /// (reported) when a shard answered one call at two epochs.
  Status Probe(std::span<ShardProbe> probes) const;
  /// The batched-probe core: out[k][i] = does pivots[i] reach set k
  /// (forward, target summaries) or does set k reach pivots[i]
  /// (reverse, source summaries)?
  void ProbeSets(bool reverse, std::span<const NodeId> pivots,
                 std::span<const BoundarySet* const> sets,
                 std::vector<std::vector<char>>* out) const;
  /// Builds one probe per shard holding `pivots`; see Columns.
  void PlanProbes(bool reverse, std::span<const NodeId> pivots,
                  std::span<const BoundarySet* const> sets,
                  std::vector<ShardProbe>* probes,
                  std::vector<Columns>* columns) const;
  /// Runs `probes` and checks every answer's epoch against the epochs
  /// `sets` recorded; false (failure reported) when the answers cannot
  /// be used.
  bool RunProbes(std::span<ShardProbe> probes,
                 std::span<const BoundarySet* const> sets) const;
  uint32_t BoundaryIndex(NodeId v) const;  // kNotBoundary when none
  /// The local ids of `shard`'s boundaries, ascending.
  void ShardBoundaryIds(size_t shard, std::vector<NodeId>* ids) const;
  std::shared_ptr<const Overlay> overlay() const;
  /// Installs `closure`, or the closure of cross edges + contributions
  /// when null. Requires mu_.
  void RebuildOverlayLocked(
      std::shared_ptr<const TransitiveClosure> closure) const;

  std::vector<size_t> shard_starts_;
  std::vector<NodeId> boundary_;
  // Boundaries of shard s are the indices [shard_bstart_[s],
  // shard_bstart_[s + 1]): boundary_ is ascending and shards contiguous.
  std::vector<uint32_t> shard_bstart_;
  std::vector<std::pair<NodeId, NodeId>> cross_edges_;
  std::vector<std::pair<uint32_t, uint32_t>> cross_b_;

  mutable std::mutex mu_;  // guards contributions_ and overlay_
  mutable std::vector<std::vector<std::pair<uint32_t, uint32_t>>>
      contributions_;
  mutable std::shared_ptr<const Overlay> overlay_;
};

}  // namespace gtpq

#endif  // GTPQ_REACHABILITY_BOUNDARY_CLOSURE_H_

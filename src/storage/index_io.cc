#include "storage/index_io.h"

#include <utility>

#include "dynamic/delta_overlay.h"
#include "reachability/chain_cover_index.h"
#include "reachability/contour.h"
#include "reachability/factory.h"
#include "reachability/interval_index.h"
#include "reachability/sharded_oracle.h"
#include "reachability/sspi.h"
#include "reachability/three_hop.h"
#include "reachability/transitive_closure.h"
#include "storage/checked_file.h"
#include "storage/mmap_file.h"

namespace gtpq {
namespace storage {

namespace {

constexpr std::string_view kShardedPrefix = "sharded:";
constexpr std::string_view kDeltaPrefix = "delta:";

/// Parses the header that follows the prologue of a file CheckPrologue
/// accepted (`body`), leaving `r` positioned at the payload.
/// FailedPrecondition when `expected_graph` is given and is not the
/// graph the file was built from.
Status OpenHeader(std::string_view body, const std::string& path,
                  const Digraph* expected_graph, IndexFileInfo* info,
                  Reader* r) {
  *r = Reader(body);
  r->set_pod_align(true);
  info->format_version = kIndexFormatVersion;
  info->file_bytes = body.size() + kPrologueBytes;
  GTPQ_RETURN_NOT_OK(r->ReadString(&info->spec));
  GTPQ_RETURN_NOT_OK(r->ReadU64(&info->graph_fingerprint));
  GTPQ_RETURN_NOT_OK(r->ReadU64(&info->num_nodes));
  GTPQ_RETURN_NOT_OK(r->ReadU64(&info->num_edges));
  GTPQ_RETURN_NOT_OK(r->ReadU64(&info->payload_bytes));
  // The header is zero-padded to the next 8-byte boundary so the payload
  // starts 8-aligned (offset 16 is itself 8-aligned, so file offsets and
  // reader offsets agree mod 8).
  GTPQ_RETURN_NOT_OK(r->AlignTo8());
  if (info->payload_bytes != r->remaining()) {
    return Status::ParseError(
        "index payload size mismatch: header says " +
        std::to_string(info->payload_bytes) + " bytes, file carries " +
        std::to_string(r->remaining()) + ": " + path);
  }
  if (expected_graph == nullptr) return Status::OK();
  const uint64_t expected = GraphFingerprint(*expected_graph);
  if (expected != info->graph_fingerprint) {
    return Status::FailedPrecondition(
        "index was built for a different graph (file fingerprint " +
        std::to_string(info->graph_fingerprint) + ", serving graph " +
        std::to_string(expected) + "): " + path);
  }
  return Status::OK();
}

/// Loads the index at `path`, read onto the heap or, with `zero_copy`,
/// mapped read-only so POD arrays borrow the mapped pages.
Result<std::unique_ptr<ReachabilityOracle>> LoadImpl(
    const std::string& path, const Digraph* expected_graph, bool zero_copy) {
  std::string bytes;
  std::shared_ptr<MmapFile> mapping;
  if (zero_copy) {
    auto mapped = MmapFile::Map(path);
    GTPQ_RETURN_NOT_OK(mapped.status());
    mapping = mapped.TakeValue();
  }
  auto body = zero_copy ? CheckPrologue(mapping->bytes(), kIndexFormat, path)
                        : ReadChecksummedFile(path, kIndexFormat, &bytes);
  GTPQ_RETURN_NOT_OK(body.status());
  IndexFileInfo info;
  Reader r{std::string_view()};
  GTPQ_RETURN_NOT_OK(OpenHeader(*body, path, expected_graph, &info, &r));
  r.set_zero_copy(zero_copy);
  auto oracle = LoadOracleBody(info.spec, &r);
  GTPQ_RETURN_NOT_OK(oracle.status());
  GTPQ_RETURN_NOT_OK(r.ExpectEnd());
  // The root oracle owns every nested sub-index, so pinning the mapping
  // here keeps all borrowed views valid for the oracle's whole life.
  if (mapping != nullptr) (*oracle)->RetainBuffer(std::move(mapping));
  return oracle;
}

}  // namespace

uint64_t GraphFingerprint(const Digraph& g) {
  GTPQ_CHECK(g.finalized());
  // FNV-1a over the CSR walk; order-sensitive, so any structural edit
  // (node added, edge moved) changes the digest.
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  mix(g.NumNodes());
  mix(g.NumEdges());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    mix(g.OutDegree(v));
    for (NodeId w : g.OutNeighbors(v)) mix(w);
  }
  return h;
}

Status SaveReachabilityIndex(const ReachabilityOracle& oracle,
                             const Digraph& g, const std::string& path) {
  Writer body;
  body.set_pod_align(true);
  GTPQ_RETURN_NOT_OK(SaveOracleBody(oracle, &body));

  Writer header;
  header.set_pod_align(true);
  header.WriteString(oracle.name());
  header.WriteU64(GraphFingerprint(g));
  header.WriteU64(g.NumNodes());
  header.WriteU64(g.NumEdges());
  header.WriteU64(body.buffer().size());
  // Pad so the payload begins on an 8-byte file offset; the body writer
  // placed its own pod pads assuming an 8-aligned start.
  header.AlignTo8();

  // Header and body go out as two parts, so the payload (quadratic for
  // transitive_closure), the dominant allocation, is never copied.
  return WriteChecksummedFile(path, kIndexFormat,
                              {header.buffer(), body.buffer()});
}

Result<std::unique_ptr<ReachabilityOracle>> LoadReachabilityIndex(
    const std::string& path) {
  return LoadImpl(path, nullptr, /*zero_copy=*/false);
}

Result<std::unique_ptr<ReachabilityOracle>> LoadReachabilityIndex(
    const std::string& path, const Digraph& expected_graph) {
  return LoadImpl(path, &expected_graph, /*zero_copy=*/false);
}

Result<std::unique_ptr<ReachabilityOracle>> LoadReachabilityIndexView(
    const std::string& path) {
  return LoadImpl(path, nullptr, /*zero_copy=*/true);
}

Result<std::unique_ptr<ReachabilityOracle>> LoadReachabilityIndexView(
    const std::string& path, const Digraph& expected_graph) {
  return LoadImpl(path, &expected_graph, /*zero_copy=*/true);
}

Result<IndexFileInfo> InspectReachabilityIndex(const std::string& path) {
  std::string bytes;
  auto body = ReadChecksummedFile(path, kIndexFormat, &bytes);
  GTPQ_RETURN_NOT_OK(body.status());
  IndexFileInfo info;
  Reader r{std::string_view()};
  GTPQ_RETURN_NOT_OK(OpenHeader(*body, path, nullptr, &info, &r));
  return info;
}

Status SaveOracleBody(const ReachabilityOracle& oracle, Writer* w) {
  const std::string_view spec = oracle.name();
  if (spec.rfind(kShardedPrefix, 0) == 0) {
    const auto* sharded = dynamic_cast<const ShardedOracle*>(&oracle);
    if (sharded == nullptr) {
      return Status::InvalidArgument(
          "oracle named '" + std::string(spec) + "' is not a ShardedOracle");
    }
    sharded->SaveBody(w);
    return Status::OK();
  }
  if (spec.rfind(kDeltaPrefix, 0) == 0) {
    const auto* delta = dynamic_cast<const DeltaOverlayOracle*>(&oracle);
    if (delta == nullptr) {
      return Status::InvalidArgument("oracle named '" + std::string(spec) +
                                     "' is not a DeltaOverlayOracle");
    }
    delta->SaveBody(w);
    return Status::OK();
  }

  auto save_as = [&](const auto* typed) {
    if (typed == nullptr) {
      return Status::InvalidArgument("oracle named '" + std::string(spec) +
                                     "' has an unexpected concrete type");
    }
    typed->SaveBody(w);
    return Status::OK();
  };
  // `contour` shares the three-hop body: ContourIndex carries no state
  // beyond its ThreeHopIndex base.
  if (spec == "contour" || spec == "three_hop") {
    return save_as(dynamic_cast<const ThreeHopIndex*>(&oracle));
  }
  if (spec == "interval") {
    return save_as(dynamic_cast<const IntervalIndex*>(&oracle));
  }
  if (spec == "sspi") return save_as(dynamic_cast<const Sspi*>(&oracle));
  if (spec == "chain_cover") {
    return save_as(dynamic_cast<const ChainCoverIndex*>(&oracle));
  }
  if (spec == "transitive_closure") {
    return save_as(dynamic_cast<const TransitiveClosure*>(&oracle));
  }
  return Status::Unimplemented("no serializer for reachability spec '" +
                               std::string(spec) + "'");
}

Result<std::unique_ptr<ReachabilityOracle>> LoadOracleBody(
    std::string_view spec, Reader* r) {
  if (spec.rfind(kDeltaPrefix, 0) == 0) {
    auto delta =
        DeltaOverlayOracle::LoadBody(spec.substr(kDeltaPrefix.size()), r);
    GTPQ_RETURN_NOT_OK(delta.status());
    return std::unique_ptr<ReachabilityOracle>(delta.TakeValue());
  }
  if (spec.rfind(kShardedPrefix, 0) == 0) {
    auto sharded = ShardedOracle::LoadBody(r);
    GTPQ_RETURN_NOT_OK(sharded.status());
    if ((*sharded)->name() != spec) {
      return Status::ParseError("sharded section inner spec '" +
                                std::string((*sharded)->name()) +
                                "' does not match header spec '" +
                                std::string(spec) + "'");
    }
    return std::unique_ptr<ReachabilityOracle>(sharded.TakeValue());
  }
  if (spec == "contour") {
    auto base = ThreeHopIndex::LoadBody(r);
    GTPQ_RETURN_NOT_OK(base.status());
    return std::unique_ptr<ReachabilityOracle>(
        std::make_unique<ContourIndex>(base.TakeValue()));
  }
  if (spec == "three_hop") {
    auto idx = ThreeHopIndex::LoadBody(r);
    GTPQ_RETURN_NOT_OK(idx.status());
    return std::unique_ptr<ReachabilityOracle>(
        std::make_unique<ThreeHopIndex>(idx.TakeValue()));
  }
  if (spec == "interval") {
    auto idx = IntervalIndex::LoadBody(r);
    GTPQ_RETURN_NOT_OK(idx.status());
    return std::unique_ptr<ReachabilityOracle>(
        std::make_unique<IntervalIndex>(idx.TakeValue()));
  }
  if (spec == "sspi") {
    auto idx = Sspi::LoadBody(r);
    GTPQ_RETURN_NOT_OK(idx.status());
    return std::unique_ptr<ReachabilityOracle>(
        std::make_unique<Sspi>(idx.TakeValue()));
  }
  if (spec == "chain_cover") {
    auto idx = ChainCoverIndex::LoadBody(r);
    GTPQ_RETURN_NOT_OK(idx.status());
    return std::unique_ptr<ReachabilityOracle>(
        std::make_unique<ChainCoverIndex>(idx.TakeValue()));
  }
  if (spec == "transitive_closure") {
    auto idx = TransitiveClosure::LoadBody(r);
    GTPQ_RETURN_NOT_OK(idx.status());
    return std::unique_ptr<ReachabilityOracle>(
        std::make_unique<TransitiveClosure>(idx.TakeValue()));
  }
  return Status::Unimplemented("no loader for reachability spec '" +
                               std::string(spec) + "'");
}

void SaveSccView(const SccView& scc, Writer* w) {
  w->WritePodArray(scc.component_of);
  w->WriteU64(scc.num_components);
  w->WritePodArray(scc.component_size);
  w->WritePodArray(scc.cyclic);
}

Status LoadSccView(Reader* r, SccView* out) {
  GTPQ_RETURN_NOT_OK(r->ReadPodArray(&out->component_of));
  uint64_t num_components = 0;
  GTPQ_RETURN_NOT_OK(r->ReadU64(&num_components));
  out->num_components = static_cast<size_t>(num_components);
  GTPQ_RETURN_NOT_OK(r->ReadPodArray(&out->component_size));
  GTPQ_RETURN_NOT_OK(r->ReadPodArray(&out->cyclic));
  if (out->component_size.size() != out->num_components ||
      out->cyclic.size() != out->num_components) {
    return Status::ParseError("inconsistent SCC section sizes");
  }
  // component_of values index the per-component arrays everywhere the
  // backends probe, so bound them here once for all loaders.
  for (NodeId c : out->component_of) {
    if (c >= out->num_components) {
      return Status::ParseError("SCC component id out of range");
    }
  }
  return Status::OK();
}

void SaveDigraph(const Digraph& g, Writer* w) {
  GTPQ_CHECK(g.finalized());
  w->WriteU64(g.NumNodes());
  w->WriteU64(g.NumEdges());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (NodeId t : g.OutNeighbors(v)) {
      w->WriteU32(v);
      w->WriteU32(t);
    }
  }
}

Status LoadDigraph(Reader* r, Digraph* out) {
  uint64_t num_nodes = 0, num_edges = 0;
  GTPQ_RETURN_NOT_OK(r->ReadU64(&num_nodes));
  GTPQ_RETURN_NOT_OK(r->ReadU64(&num_edges));
  if (num_nodes > 0xFFFFFFFFull) {
    // NodeId is 32-bit; also bounds the Digraph allocation below before
    // a corrupt count can be trusted.
    return Status::ParseError("digraph section node count out of range");
  }
  if (num_edges > r->remaining() / 8) {
    return Status::ParseError("digraph section edge count overruns payload");
  }
  Digraph g(static_cast<size_t>(num_nodes));
  for (uint64_t i = 0; i < num_edges; ++i) {
    uint32_t from = 0, to = 0;
    GTPQ_RETURN_NOT_OK(r->ReadU32(&from));
    GTPQ_RETURN_NOT_OK(r->ReadU32(&to));
    if (from >= num_nodes || to >= num_nodes) {
      return Status::ParseError("digraph section edge out of range");
    }
    g.AddEdge(from, to);
  }
  g.Finalize();
  if (g.NumEdges() != num_edges) {
    // The CSR walk a save iterates is already sorted and duplicate-free,
    // so any shrink here means the section was not produced by SaveDigraph.
    return Status::ParseError("digraph section contains duplicate edges");
  }
  *out = std::move(g);
  return Status::OK();
}

void SaveChainCoverView(const ChainCoverView& cover, Writer* w) {
  w->WritePodArray(cover.cid_of);
  w->WritePodArray(cover.sid_of);
  w->WriteNestedPodArray(cover.chains);
}

Status LoadChainCoverView(Reader* r, ChainCoverView* out) {
  GTPQ_RETURN_NOT_OK(r->ReadPodArray(&out->cid_of));
  GTPQ_RETURN_NOT_OK(r->ReadPodArray(&out->sid_of));
  GTPQ_RETURN_NOT_OK(r->ReadNestedPodArray(&out->chains));
  if (out->cid_of.size() != out->sid_of.size()) {
    return Status::ParseError("inconsistent chain cover section sizes");
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace gtpq

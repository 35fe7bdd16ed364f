#ifndef GTPQ_STORAGE_INDEX_IO_H_
#define GTPQ_STORAGE_INDEX_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "graph/algorithms.h"
#include "graph/digraph.h"
#include "reachability/chain_cover.h"
#include "reachability/index_view.h"
#include "reachability/reachability_index.h"
#include "storage/checked_file.h"
#include "storage/serializer.h"

namespace gtpq {
namespace storage {

/// On-disk layout of a ".gtpqidx" reachability index file (all scalars
/// little-endian; the prologue is storage/checked_file.h's):
///
///   [0..8)    magic "GTPQIDX\n"
///   [8..12)   u32 format version (kIndexFormatVersion)
///   [12..16)  u32 CRC-32 over every byte from offset 16 to EOF
///   [16..)    header continued, covered by the checksum:
///               string  backend spec ("contour", "sharded:interval", ...)
///               u64     graph fingerprint (GraphFingerprint of the
///                       graph the index was built from)
///               u64     num nodes, u64 num edges of that graph
///               u64     payload size in bytes
///               zero pad to the next 8-byte file offset
///             payload: backend-specific body (each backend's SaveBody;
///             decorators nest their inner oracle's section)
///
/// The file uses the pod_align layout (storage/serializer.h): the
/// header is padded so the payload starts 8-aligned, and every POD
/// vector in the payload pads after its count prefix so its element
/// bytes sit on an 8-byte file offset. Since offset 16 is itself
/// 8-aligned, file alignment equals mapped-memory alignment — which is
/// what lets LoadReachabilityIndexView hand out element views pointing
/// straight into read-only mmap'd pages instead of heap copies.
///
/// v3 dropped two derived arrays from the `sharded:` section, which now
/// carries the BoundaryLayout codec (reachability/boundary_closure.h).
///
/// Readers reject, with a clean Status and no crash: wrong magic,
/// version mismatch, checksum mismatch (covers truncation and bit
/// corruption), trailing bytes, and — when the caller supplies the
/// graph being served — a fingerprint mismatch. Saves replace the file
/// atomically against a killed process (WriteChecksummedFile).
inline constexpr std::string_view kIndexMagic = "GTPQIDX\n";
inline constexpr uint32_t kIndexFormatVersion = 3;
inline constexpr FileFormat kIndexFormat{kIndexMagic, kIndexFormatVersion,
                                         "index"};
inline constexpr std::string_view kIndexFileExtension = ".gtpqidx";

/// Order-sensitive 64-bit digest of a finalized graph's structure
/// (node count + CSR adjacency). Two graphs with the same fingerprint
/// are, for persistence purposes, the same graph.
uint64_t GraphFingerprint(const Digraph& g);

/// Parsed header of an index file, for `gteactl inspect` and tooling.
struct IndexFileInfo {
  uint32_t format_version = 0;
  std::string spec;
  uint64_t graph_fingerprint = 0;
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  uint64_t payload_bytes = 0;
  uint64_t file_bytes = 0;
};

/// Serializes a factory-built oracle (any base backend or decorator
/// chain; the oracle's name() must be its factory spec) to `path`,
/// stamping the fingerprint of `g`, the graph it was built from.
Status SaveReachabilityIndex(const ReachabilityOracle& oracle,
                             const Digraph& g, const std::string& path);

/// Loads an index file back into a ready-to-probe oracle. The returned
/// oracle's name() is the spec it was saved under. No fingerprint check
/// — the caller vouches for the graph.
Result<std::unique_ptr<ReachabilityOracle>> LoadReachabilityIndex(
    const std::string& path);

/// Same, but additionally rejects the file (FailedPrecondition) when
/// its fingerprint does not match `expected_graph` — the safe entry
/// point the factory's "file:<path>" spec uses.
Result<std::unique_ptr<ReachabilityOracle>> LoadReachabilityIndex(
    const std::string& path, const Digraph& expected_graph);

/// Zero-copy load: validates the header/CRC/fingerprint over a
/// read-only shared mapping of `path` and constructs backends whose
/// flat-array views BORROW the mapped payload instead of copying it —
/// probe paths then read page-faulted mapped memory shared with every
/// other process mapping the same file. The mapping's lifetime is
/// pinned on the returned root oracle (RetainBuffer), which owns all
/// nested sub-indexes, so the views stay valid for the oracle's whole
/// life. Served through the factory as "mmap:<path>".
Result<std::unique_ptr<ReachabilityOracle>> LoadReachabilityIndexView(
    const std::string& path);
Result<std::unique_ptr<ReachabilityOracle>> LoadReachabilityIndexView(
    const std::string& path, const Digraph& expected_graph);

/// Reads and validates (magic, version, checksum) the header only.
Result<IndexFileInfo> InspectReachabilityIndex(const std::string& path);

// --- Body-level hooks (used by decorators for nested sections) --------

/// Appends the backend-specific body of `oracle` to `w`, dispatching on
/// its spec. Sharded decorators write per-shard sections.
Status SaveOracleBody(const ReachabilityOracle& oracle, Writer* w);

/// Parses the body written by SaveOracleBody for `spec`.
Result<std::unique_ptr<ReachabilityOracle>> LoadOracleBody(
    std::string_view spec, Reader* r);

// --- Codecs for substructures shared across backends ------------------
//
// Backends hold these substructures through the IndexView seam
// (reachability/index_view.h), so the codecs speak the view types:
// saves read owned-or-borrowed arrays transparently, loads produce
// borrowed views under a zero-copy reader and owned copies otherwise.

void SaveSccView(const SccView& scc, Writer* w);
Status LoadSccView(Reader* r, SccView* out);
void SaveChainCoverView(const ChainCoverView& cover, Writer* w);
Status LoadChainCoverView(Reader* r, ChainCoverView* out);
/// Structure-only digraph codec (node count + edge list). Used by the
/// delta-overlay section, whose immutable base graph travels inside the
/// index file so a loaded snapshot can keep searching the overlay.
void SaveDigraph(const Digraph& g, Writer* w);
Status LoadDigraph(Reader* r, Digraph* out);

}  // namespace storage
}  // namespace gtpq

#endif  // GTPQ_STORAGE_INDEX_IO_H_

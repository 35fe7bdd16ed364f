#ifndef GTPQ_WORKLOAD_XMARK_H_
#define GTPQ_WORKLOAD_XMARK_H_

#include <cstdint>

#include "graph/data_graph.h"

namespace gtpq {
namespace workload {

/// Tag labels of the XMark-shaped synthetic graph. person and item
/// elements carry group labels instead (the paper randomly partitions
/// them into ten groups each, Section 5.1).
enum XmarkTag : int64_t {
  kSite = 1,
  kPeople,
  kName,
  kEmail,
  kAddress,
  kCity,
  kProfile,
  kEducation,
  kInterest,
  kItems,
  kLocation,
  kQuantity,
  kDescription,
  kMailbox,
  kMail,
  kOpenAuctions,
  kOpenAuction,
  kInitial,
  kCurrent,
  kBidder,
  kDate,
  kTime,
  kPersonRef,
  kItemRef,
  kSeller,
  kAnnotation,
  kClosedAuctions,
  kClosedAuction,
  kPrice,
  kBuyer,
};

/// Group labels: person group g in [0,10) has label kPersonGroupBase+g.
constexpr int64_t kPersonGroupBase = 100;
constexpr int64_t kItemGroupBase = 200;
constexpr int kNumGroups = 10;

struct XmarkOptions {
  /// The paper's scaling factor; scale 1 produces ~1.3M nodes /
  /// ~1.5M edges like Table 1. Fractional scales shrink linearly.
  double scale = 1.0;
  uint64_t seed = 2012;
};

/// Generates the XMark-shaped graph: a shallow element tree for
/// people / items / open and closed auctions, plus ID/IDREF cross edges
/// person_ref->person, item_ref->item, seller->person, buyer->person.
/// The spanning tree annotation is populated (for the tree-only
/// baselines); all IDREF sources live inside auction records, so
/// record-internal AD semantics agree between the spanning tree and the
/// full graph — the property the paper's decomposition relies on.
DataGraph GenerateXmark(const XmarkOptions& options);

}  // namespace workload
}  // namespace gtpq

#endif  // GTPQ_WORKLOAD_XMARK_H_

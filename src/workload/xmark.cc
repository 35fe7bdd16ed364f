#include "workload/xmark.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"

namespace gtpq {
namespace workload {

namespace {

// Element counts per unit scale, calibrated so that scale 1 lands near
// Table 1 (1.29M nodes / 1.54M edges).
constexpr double kPersonsPerScale = 64000;
constexpr double kItemsPerScale = 54000;
constexpr double kOpenPerScale = 30000;
constexpr double kClosedPerScale = 24000;

class Builder {
 public:
  explicit Builder(const XmarkOptions& options)
      : rng_(options.seed),
        num_persons_(std::max<size_t>(
            4, static_cast<size_t>(kPersonsPerScale * options.scale))),
        num_items_(std::max<size_t>(
            4, static_cast<size_t>(kItemsPerScale * options.scale))),
        num_open_(std::max<size_t>(
            2, static_cast<size_t>(kOpenPerScale * options.scale))),
        num_closed_(std::max<size_t>(
            2, static_cast<size_t>(kClosedPerScale * options.scale))) {}

  DataGraph Build() {
    NodeId site = Add(kSite, kInvalidNode);

    NodeId people = Add(kPeople, site);
    persons_.reserve(num_persons_);
    for (size_t i = 0; i < num_persons_; ++i) {
      NodeId person = Add(kPersonGroupBase +
                              static_cast<int64_t>(rng_.NextBounded(
                                  kNumGroups)),
                          people);
      persons_.push_back(person);
      Add(kName, person);
      Add(kEmail, person);
      NodeId address = Add(kAddress, person);
      Add(kCity, address);
      NodeId profile = Add(kProfile, person);
      if (rng_.NextBool(0.7)) Add(kEducation, profile);
      const int interests = static_cast<int>(rng_.NextBounded(3));
      for (int k = 0; k < interests; ++k) Add(kInterest, profile);
    }

    NodeId items = Add(kItems, site);
    items_.reserve(num_items_);
    for (size_t i = 0; i < num_items_; ++i) {
      NodeId item = Add(
          kItemGroupBase +
              static_cast<int64_t>(rng_.NextBounded(kNumGroups)),
          items);
      items_.push_back(item);
      Add(kLocation, item);
      Add(kQuantity, item);
      Add(kDescription, item);
      NodeId mailbox = Add(kMailbox, item);
      const int mails = static_cast<int>(rng_.NextBounded(3));
      for (int k = 0; k < mails; ++k) Add(kMail, mailbox);
    }

    NodeId opens = Add(kOpenAuctions, site);
    for (size_t i = 0; i < num_open_; ++i) {
      NodeId auction = Add(kOpenAuction, opens);
      Add(kInitial, auction);
      Add(kCurrent, auction);
      const int bidders = 1 + static_cast<int>(rng_.NextBounded(3));
      for (int k = 0; k < bidders; ++k) {
        NodeId bidder = Add(kBidder, auction);
        Add(kDate, bidder);
        Add(kTime, bidder);
        NodeId ref = Add(kPersonRef, bidder);
        Ref(ref, RandomPerson());
      }
      NodeId item_ref = Add(kItemRef, auction);
      Ref(item_ref, RandomItem());
      NodeId seller = Add(kSeller, auction);
      Ref(seller, RandomPerson());
      Add(kAnnotation, auction);
    }

    NodeId closeds = Add(kClosedAuctions, site);
    for (size_t i = 0; i < num_closed_; ++i) {
      NodeId auction = Add(kClosedAuction, closeds);
      Add(kPrice, auction);
      Add(kDate, auction);
      NodeId item_ref = Add(kItemRef, auction);
      Ref(item_ref, RandomItem());
      NodeId buyer = Add(kBuyer, auction);
      Ref(buyer, RandomPerson());
      NodeId seller = Add(kSeller, auction);
      Ref(seller, RandomPerson());
    }

    graph_.Finalize();
    return std::move(graph_);
  }

 private:
  NodeId Add(int64_t label, NodeId parent) {
    NodeId v = graph_.AddNode(label);
    if (parent != kInvalidNode) {
      graph_.AddEdge(parent, v);
      graph_.SetTreeParent(v, parent);
    } else {
      graph_.SetTreeParent(v, kInvalidNode);
    }
    return v;
  }

  void Ref(NodeId from, NodeId to) { graph_.AddEdge(from, to); }

  NodeId RandomPerson() {
    return persons_[rng_.NextBounded(persons_.size())];
  }
  NodeId RandomItem() { return items_[rng_.NextBounded(items_.size())]; }

  DataGraph graph_;
  Rng rng_;
  size_t num_persons_, num_items_, num_open_, num_closed_;
  std::vector<NodeId> persons_, items_;
};

}  // namespace

DataGraph GenerateXmark(const XmarkOptions& options) {
  Builder b(options);
  return b.Build();
}

}  // namespace workload
}  // namespace gtpq

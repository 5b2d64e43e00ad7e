#include "mining/candidate_pruner.h"

#include "common/logging.h"

namespace ossm {

OssmPruner::OssmPruner(const SegmentSupportMap* map) : map_(map) {
  OSSM_CHECK(map_ != nullptr);
}

uint64_t OssmPruner::UpperBound(std::span<const ItemId> itemset) const {
  return map_->UpperBound(itemset);
}

std::span<const uint64_t> OssmPruner::ExactSingletonSupports() const {
  return map_->item_supports();
}

GeneralizedOssmPruner::GeneralizedOssmPruner(const GeneralizedOssm* map)
    : map_(map) {
  OSSM_CHECK(map_ != nullptr);
}

uint64_t GeneralizedOssmPruner::UpperBound(
    std::span<const ItemId> itemset) const {
  return map_->UpperBound(itemset);
}

std::span<const uint64_t> GeneralizedOssmPruner::ExactSingletonSupports()
    const {
  return map_->base().item_supports();
}

}  // namespace ossm

#ifndef OSSM_CORE_BUBBLE_LIST_H_
#define OSSM_CORE_BUBBLE_LIST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/item.h"

namespace ossm {

// The bubble-list optimization (Section 5.3). Segmentation quality only
// matters for items whose support is near the mining threshold — the ones
// "on the bubble" — because pruning decisions for items far above or far
// below the threshold do not depend on how tight the bound is. Restricting
// the ossub summation of equation (2) to pairs of bubble items makes the
// segmenters minimize the loss on those items alone. The paper also counts
// it as a speedup, m^2 -> B^2 item pairs per evaluation; with the closed
// form of core/ossub.h that saving is m log m -> B log B, so the list is
// mainly a quality knob: it picks which items' loss counts.
//
// The list is built against one support threshold but the resulting OSSM
// remains usable at any threshold (evaluated in Figure 6, where segmentation
// uses 0.25% and queries use 1%).
//
// Selection rule: the `size` items whose global support is closest to the
// threshold, preferring (on distance ties) the items that satisfy it — a
// direct reading of "items whose frequencies barely satisfy, and are the
// closest to, the support threshold".
std::vector<ItemId> SelectBubbleList(std::span<const uint64_t> item_supports,
                                     uint64_t min_support_count,
                                     uint32_t size);

}  // namespace ossm

#endif  // OSSM_CORE_BUBBLE_LIST_H_

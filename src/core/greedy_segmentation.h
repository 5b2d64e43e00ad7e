#ifndef OSSM_CORE_GREEDY_SEGMENTATION_H_
#define OSSM_CORE_GREEDY_SEGMENTATION_H_

#include "core/segmentation.h"

namespace ossm {

// The Greedy algorithm of Figure 2: repeatedly merge the pair of segments
// with the globally minimal pairwise ossub, recomputing losses against the
// merged segment (whose configuration may be brand new — Example 3) after
// every merge. A lazy-deletion binary heap replaces the paper's priority
// queue with explicit removals; entries are invalidated by per-segment
// version counters instead. Section 5.2 prices the algorithm at
// O(P^2 m^2 + P^2 log P). Each live segment keeps its S (core/ossub.h), so
// an evaluation is one sort of m merged counts and the total is
// O(P^2 m log m + P^2 log P).
class GreedySegmenter : public Segmenter {
 public:
  std::string_view name() const override { return "Greedy"; }

  StatusOr<std::vector<Segment>> Run(std::vector<Segment> initial,
                                     const SegmentationOptions& options,
                                     SegmentationStats* stats) override;
};

}  // namespace ossm

#endif  // OSSM_CORE_GREEDY_SEGMENTATION_H_

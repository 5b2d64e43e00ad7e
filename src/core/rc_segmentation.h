#ifndef OSSM_CORE_RC_SEGMENTATION_H_
#define OSSM_CORE_RC_SEGMENTATION_H_

#include "core/segmentation.h"

namespace ossm {

// The RC (Random Closest) algorithm of Figure 3: each iteration picks a
// random live segment and merges it with its closest neighbour — the one
// minimizing pairwise ossub. No priority queue is maintained, so each of
// the (P - n_user) iterations costs one O(P) scan of ossub evaluations.
// Each live segment keeps its S (core/ossub.h), so an evaluation is one
// sort of m merged counts: O(P^2 m log m) total (the paper's O(P^2 m^2)),
// versus Greedy's additional O(P^2 log P) queue work but globally-minimal
// merges.
class RcSegmenter : public Segmenter {
 public:
  std::string_view name() const override { return "RC"; }

  StatusOr<std::vector<Segment>> Run(std::vector<Segment> initial,
                                     const SegmentationOptions& options,
                                     SegmentationStats* stats) override;
};

}  // namespace ossm

#endif  // OSSM_CORE_RC_SEGMENTATION_H_

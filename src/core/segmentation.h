#ifndef OSSM_CORE_SEGMENTATION_H_
#define OSSM_CORE_SEGMENTATION_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/segment.h"
#include "data/item.h"

namespace ossm {

// Options shared by all constrained-segmentation heuristics (Section 5.2).
struct SegmentationOptions {
  // n_user — the number of segments to end with. Must be >= 1; if the input
  // already has <= n_user segments, segmentation is a no-op.
  uint64_t target_segments = 40;

  // If non-empty, the ossub computation is restricted to pairs of these
  // items (the bubble list of Section 5.3). Sorted item ids.
  std::vector<ItemId> bubble;

  // Seed for the randomized algorithms (Random, RC, hybrids).
  uint64_t seed = 1;
};

// Bookkeeping every segmenter reports back; benches print these.
struct SegmentationStats {
  double seconds = 0.0;
  // How many pairwise ossub evaluations were performed — the paper's cost
  // model counts exactly these. The paper prices each at O(m^2) item pairs
  // (O(|bubble|^2) with a bubble list); the closed form of core/ossub.h
  // evaluates one in O(m log m) (O(|bubble| log |bubble|)).
  uint64_t ossub_evaluations = 0;
  // How many times Greedy's lazy-deletion heap was compacted (stale-entry
  // eviction; always 0 for the other segmenters).
  uint64_t heap_compactions = 0;
};

// Interface of a constrained-segmentation heuristic. Implementations:
// RandomSegmenter, RcSegmenter, GreedySegmenter, HybridSegmenter.
class Segmenter {
 public:
  virtual ~Segmenter() = default;

  virtual std::string_view name() const = 0;

  // Merges `initial` down to options.target_segments segments. Consumes the
  // input. Fails with InvalidArgument if options are inconsistent (zero
  // target, empty input, mismatched domains).
  virtual StatusOr<std::vector<Segment>> Run(
      std::vector<Segment> initial, const SegmentationOptions& options,
      SegmentationStats* stats) = 0;
};

namespace internal_segmentation {

// Shared validation for all segmenters.
Status ValidateInput(const std::vector<Segment>& initial,
                     const SegmentationOptions& options);

}  // namespace internal_segmentation

}  // namespace ossm

#endif  // OSSM_CORE_SEGMENTATION_H_

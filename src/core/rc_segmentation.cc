#include "core/rc_segmentation.h"

#include "common/random.h"
#include "common/timer.h"
#include "core/ossub.h"
#include "obs/obs.h"

namespace ossm {

StatusOr<std::vector<Segment>> RcSegmenter::Run(
    std::vector<Segment> initial, const SegmentationOptions& options,
    SegmentationStats* stats) {
  OSSM_RETURN_IF_ERROR(
      internal_segmentation::ValidateInput(initial, options));
  OSSM_TRACE_SPAN("segment.rc");
  WallTimer timer;
  uint64_t evaluations = 0;

  Rng rng(options.seed);
  std::span<const ItemId> bubble(options.bubble);

  // Live segments are kept compact by swap-with-last on removal;
  // pair_mins[s] is S(live[s]) (see core/ossub.h) and moves with it.
  std::vector<Segment> live = std::move(initial);
  std::vector<uint64_t> pair_mins;
  pair_mins.reserve(live.size());
  for (const Segment& seg : live) {
    pair_mins.push_back(PairMinSum(seg.counts, bubble));
  }

  while (live.size() > options.target_segments) {
    size_t a = static_cast<size_t>(rng.UniformInt(live.size()));

    // Find the closest segment to `a`.
    size_t best = SIZE_MAX;
    uint64_t best_loss = UINT64_MAX;
    for (size_t b = 0; b < live.size(); ++b) {
      if (b == a) continue;
      uint64_t loss = PairwiseOssub(live[a].counts, pair_mins[a],
                                    live[b].counts, pair_mins[b], bubble);
      ++evaluations;
      if (loss < best_loss) {
        best_loss = loss;
        best = b;
      }
    }

    MergeSegmentInto(live[a], std::move(live[best]));
    pair_mins[a] = PairMinSum(live[a].counts, bubble);
    if (best != live.size() - 1) {
      live[best] = std::move(live.back());
      pair_mins[best] = pair_mins.back();
    }
    live.pop_back();
    pair_mins.pop_back();
  }

  OSSM_COUNTER_ADD("segment.ossub_evaluations", evaluations);
  if (stats != nullptr) {
    stats->seconds = timer.ElapsedSeconds();
    stats->ossub_evaluations = evaluations;
  }
  return live;
}

}  // namespace ossm

#include "core/ossm_builder.h"

#include <algorithm>
#include <cmath>

#include "core/bubble_list.h"
#include "core/greedy_segmentation.h"
#include "core/hybrid_segmentation.h"
#include "core/rc_segmentation.h"
#include "core/random_segmentation.h"
#include "obs/obs.h"

namespace ossm {

std::string_view SegmentationAlgorithmName(SegmentationAlgorithm algorithm) {
  switch (algorithm) {
    case SegmentationAlgorithm::kRandom:
      return "Random";
    case SegmentationAlgorithm::kRc:
      return "RC";
    case SegmentationAlgorithm::kGreedy:
      return "Greedy";
    case SegmentationAlgorithm::kRandomRc:
      return "Random-RC";
    case SegmentationAlgorithm::kRandomGreedy:
      return "Random-Greedy";
  }
  return "Unknown";
}

std::unique_ptr<Segmenter> MakeSegmenter(SegmentationAlgorithm algorithm,
                                         uint64_t intermediate_segments) {
  switch (algorithm) {
    case SegmentationAlgorithm::kRandom:
      return std::make_unique<RandomSegmenter>();
    case SegmentationAlgorithm::kRc:
      return std::make_unique<RcSegmenter>();
    case SegmentationAlgorithm::kGreedy:
      return std::make_unique<GreedySegmenter>();
    case SegmentationAlgorithm::kRandomRc:
      return std::make_unique<HybridSegmenter>(std::make_unique<RcSegmenter>(),
                                               intermediate_segments);
    case SegmentationAlgorithm::kRandomGreedy:
      return std::make_unique<HybridSegmenter>(
          std::make_unique<GreedySegmenter>(), intermediate_segments);
  }
  OSSM_CHECK(false) << "unreachable";
  return nullptr;
}

StatusOr<OssmBuildResult> BuildOssm(const TransactionDatabase& db,
                                    const OssmBuildOptions& options) {
  // Negated so NaN fails too.
  if (!(options.bubble_fraction >= 0.0 && options.bubble_fraction <= 1.0)) {
    return Status::InvalidArgument("bubble_fraction must be in [0, 1]");
  }
  if (!(options.bubble_threshold >= 0.0 && options.bubble_threshold <= 1.0)) {
    return Status::InvalidArgument("bubble_threshold must be in [0, 1]");
  }
  OSSM_TRACE_SPAN("ossm.build");

  StatusOr<PageLayout> layout =
      MakePageLayout(db, options.transactions_per_page);
  if (!layout.ok()) return layout.status();
  PageItemCounts page_counts(db, *layout);
  OSSM_GAUGE_SET("ossm.pages", page_counts.num_pages());

  SegmentationOptions seg_options;
  seg_options.target_segments = options.target_segments;
  seg_options.seed = options.seed;
  if (options.bubble_fraction > 0.0) {
    OSSM_TRACE_SPAN("ossm.bubble");
    uint32_t size = static_cast<uint32_t>(
        std::llround(options.bubble_fraction * db.num_items()));
    size = std::max<uint32_t>(size, 2);  // a pair summation needs >= 2 items
    uint64_t min_count = static_cast<uint64_t>(
        std::ceil(options.bubble_threshold *
                  static_cast<double>(db.num_transactions())));
    std::vector<uint64_t> supports = db.ComputeItemSupports();
    seg_options.bubble = SelectBubbleList(
        std::span<const uint64_t>(supports), min_count, size);
    OSSM_GAUGE_SET("ossm.bubble_items", seg_options.bubble.size());
  }

  std::unique_ptr<Segmenter> segmenter =
      MakeSegmenter(options.algorithm, options.intermediate_segments);

  OssmBuildResult result;
  StatusOr<std::vector<Segment>> segments = segmenter->Run(
      SegmentsFromPages(page_counts), seg_options, &result.stats);
  if (!segments.ok()) return segments.status();
  OSSM_GAUGE_SET("ossm.segments", segments->size());
  OSSM_COUNTER_INC("ossm.builds");

  result.map = SegmentSupportMap::FromSegments(
      std::span<const Segment>(*segments));
  result.layout = std::move(*layout);
  result.page_to_segment.assign(page_counts.num_pages(), 0);
  for (uint32_t s = 0; s < segments->size(); ++s) {
    for (uint32_t page : (*segments)[s].pages) {
      result.page_to_segment[page] = s;
    }
  }
  return result;
}

SegmentationAlgorithm RecommendStrategy(bool large_target_and_skewed,
                                        bool segmentation_cost_an_issue,
                                        bool very_many_pages,
                                        bool prefer_greedy_quality) {
  // Figure 7, read top-down: skewed data with a generous segment budget
  // needs nothing fancier than Random; if segmentation cost is no object,
  // pure Greedy (with a bubble list) wins; otherwise pick a hybrid, leaning
  // Random-RC when the page count is very large.
  if (large_target_and_skewed) return SegmentationAlgorithm::kRandom;
  if (!segmentation_cost_an_issue) return SegmentationAlgorithm::kGreedy;
  if (very_many_pages) return SegmentationAlgorithm::kRandomRc;
  return prefer_greedy_quality ? SegmentationAlgorithm::kRandomGreedy
                               : SegmentationAlgorithm::kRandomRc;
}

}  // namespace ossm

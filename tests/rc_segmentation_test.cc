#include "core/rc_segmentation.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/ossub.h"
#include "core/random_segmentation.h"
#include "tests/segmentation_test_util.h"

namespace ossm {
namespace {

// Straight-line reference for RcSegmenter: the same random picks and
// swap-with-last removal, but every loss evaluated from scratch — no S
// kept per segment.
std::vector<Segment> ReferenceRc(std::vector<Segment> live,
                                 const SegmentationOptions& options) {
  Rng rng(options.seed);
  while (live.size() > options.target_segments) {
    size_t a = static_cast<size_t>(rng.UniformInt(live.size()));
    size_t best = SIZE_MAX;
    uint64_t best_loss = UINT64_MAX;
    for (size_t b = 0; b < live.size(); ++b) {
      if (b == a) continue;
      uint64_t loss = PairwiseOssub(live[a], live[b], options.bubble);
      if (loss < best_loss) {
        best_loss = loss;
        best = b;
      }
    }
    MergeSegmentInto(live[a], std::move(live[best]));
    if (best != live.size() - 1) live[best] = std::move(live.back());
    live.pop_back();
  }
  return live;
}

TEST(RcSegmentationTest, MatchesStraightLineReference) {
  for (const std::vector<ItemId>& bubble :
       {std::vector<ItemId>{}, std::vector<ItemId>{0, 2, 3, 6}}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      SegmentationOptions options;
      options.target_segments = 4;
      options.bubble = bubble;
      options.seed = seed;
      std::vector<Segment> expected =
          ReferenceRc(test::RandomSegments(seed, 30, 8), options);
      RcSegmenter segmenter;
      StatusOr<std::vector<Segment>> result =
          segmenter.Run(test::RandomSegments(seed, 30, 8), options, nullptr);
      ASSERT_TRUE(result.ok());
      ASSERT_EQ(result->size(), expected.size());
      for (size_t s = 0; s < expected.size(); ++s) {
        EXPECT_EQ((*result)[s].counts, expected[s].counts)
            << "seed " << seed << " bubble " << bubble.size() << " segment "
            << s;
        EXPECT_EQ((*result)[s].pages, expected[s].pages)
            << "seed " << seed << " bubble " << bubble.size() << " segment "
            << s;
      }
    }
  }
}

TEST(RcSegmentationTest, ReachesTargetCount) {
  RcSegmenter segmenter;
  SegmentationOptions options;
  options.target_segments = 6;
  SegmentationStats stats;
  StatusOr<std::vector<Segment>> result =
      segmenter.Run(test::RandomSegments(1, 30, 8), options, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 6u);
  EXPECT_GT(stats.ossub_evaluations, 0u);
}

TEST(RcSegmentationTest, PreservesTotalsAndPages) {
  std::vector<Segment> input = test::RandomSegments(2, 25, 5);
  std::vector<uint64_t> totals = test::TotalCounts(input);
  RcSegmenter segmenter;
  SegmentationOptions options;
  options.target_segments = 4;
  StatusOr<std::vector<Segment>> result =
      segmenter.Run(std::move(input), options, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(test::TotalCounts(*result), totals);
  EXPECT_EQ(test::CollectPages(*result).size(), 25u);
}

TEST(RcSegmentationTest, MergesWithinZeroLossFamilies) {
  // Two configuration families, each with a zero-loss twin. Whatever random
  // segment RC picks, its closest neighbour is its own twin, so the single
  // merge never crosses families — for any seed.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    std::vector<Segment> input;
    Segment a1, a2, b1, b2;
    a1.counts = {10, 5, 1};
    a1.pages = {0};
    a2.counts = {20, 10, 2};
    a2.pages = {1};
    b1.counts = {1, 5, 10};
    b1.pages = {100};
    b2.counts = {2, 10, 20};
    b2.pages = {101};
    input.push_back(std::move(a1));
    input.push_back(std::move(a2));
    input.push_back(std::move(b1));
    input.push_back(std::move(b2));

    RcSegmenter segmenter;
    SegmentationOptions options;
    options.target_segments = 3;
    options.seed = seed;
    StatusOr<std::vector<Segment>> result =
        segmenter.Run(std::move(input), options, nullptr);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->size(), 3u);
    for (const Segment& seg : *result) {
      if (seg.pages.size() == 2) {
        // Pages of one family are both < 100 or both >= 100.
        EXPECT_EQ(seg.pages[0] < 100, seg.pages[1] < 100) << "seed " << seed;
      }
    }
  }
}

TEST(RcSegmentationTest, QualityAtLeastAsGoodAsRandomOnAverage) {
  // RC merges closest segments, so across several seeds its accumulated
  // bound loss (TotalPairBound of the result — the objective equation (2)
  // scores) should beat Random's arbitrary merges.
  uint64_t rc_total = 0;
  uint64_t random_total = 0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    SegmentationOptions options;
    options.target_segments = 5;
    options.seed = seed;

    RcSegmenter rc;
    StatusOr<std::vector<Segment>> rc_result =
        rc.Run(test::RandomSegments(seed + 10, 30, 10), options, nullptr);
    ASSERT_TRUE(rc_result.ok());
    rc_total += test::TotalPairBound(*rc_result);

    RandomSegmenter random;
    StatusOr<std::vector<Segment>> random_result = random.Run(
        test::RandomSegments(seed + 10, 30, 10), options, nullptr);
    ASSERT_TRUE(random_result.ok());
    random_total += test::TotalPairBound(*random_result);
  }
  EXPECT_LT(rc_total, random_total);
}

TEST(RcSegmentationTest, DeterministicForSeed) {
  SegmentationOptions options;
  options.target_segments = 3;
  options.seed = 11;
  RcSegmenter segmenter;
  StatusOr<std::vector<Segment>> a =
      segmenter.Run(test::RandomSegments(4, 15, 6), options, nullptr);
  StatusOr<std::vector<Segment>> b =
      segmenter.Run(test::RandomSegments(4, 15, 6), options, nullptr);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t s = 0; s < a->size(); ++s) {
    EXPECT_EQ((*a)[s].counts, (*b)[s].counts);
  }
}

TEST(RcSegmentationTest, HonoursBubbleList) {
  // With the bubble restricted to items {0, 1}, differences on item 2 are
  // invisible to the loss. Two families are identical on the bubble (zero
  // loss within, positive loss across), so the single merge stays inside a
  // family for any seed — even though item 2 would make every within-family
  // pair look maximally different under the full summation.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    std::vector<Segment> input;
    Segment a, b, c, d;
    a.counts = {10, 5, 100};
    a.pages = {0};
    b.counts = {10, 5, 0};
    b.pages = {1};
    c.counts = {0, 50, 3};
    c.pages = {2};
    d.counts = {0, 50, 77};
    d.pages = {3};
    input.push_back(std::move(a));
    input.push_back(std::move(b));
    input.push_back(std::move(c));
    input.push_back(std::move(d));

    SegmentationOptions options;
    options.target_segments = 3;
    options.bubble = {0, 1};
    options.seed = seed;
    RcSegmenter segmenter;
    StatusOr<std::vector<Segment>> result =
        segmenter.Run(std::move(input), options, nullptr);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->size(), 3u);
    for (const Segment& seg : *result) {
      if (seg.pages.size() == 2) {
        std::vector<uint32_t> pages = seg.pages;
        std::sort(pages.begin(), pages.end());
        bool within_family = (pages == std::vector<uint32_t>{0, 1}) ||
                             (pages == std::vector<uint32_t>{2, 3});
        EXPECT_TRUE(within_family) << "seed " << seed;
      }
    }
  }
}

TEST(RcSegmentationTest, RejectsInvalidBubble) {
  SegmentationOptions options;
  options.target_segments = 2;
  options.bubble = {5, 3};  // not increasing
  RcSegmenter segmenter;
  EXPECT_EQ(
      segmenter.Run(test::RandomSegments(1, 5, 6), options, nullptr)
          .status()
          .code(),
      StatusCode::kInvalidArgument);

  options.bubble = {3, 99};  // out of domain
  EXPECT_EQ(
      segmenter.Run(test::RandomSegments(1, 5, 6), options, nullptr)
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(RcSegmentationTest, Name) {
  RcSegmenter segmenter;
  EXPECT_EQ(segmenter.name(), "RC");
}

}  // namespace
}  // namespace ossm

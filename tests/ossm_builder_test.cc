#include "core/ossm_builder.h"

#include <gtest/gtest.h>

#include <limits>

#include "datagen/quest_generator.h"
#include "datagen/skewed_generator.h"

namespace ossm {
namespace {

TransactionDatabase SmallQuest(uint64_t seed = 1) {
  QuestConfig config;
  config.num_items = 60;
  config.num_transactions = 4000;
  config.avg_transaction_size = 6;
  config.avg_pattern_size = 3;
  config.num_patterns = 15;
  config.seed = seed;
  StatusOr<TransactionDatabase> db = GenerateQuest(config);
  EXPECT_TRUE(db.ok());
  return std::move(db).value();
}

TEST(OssmBuilderTest, AlgorithmNames) {
  EXPECT_EQ(SegmentationAlgorithmName(SegmentationAlgorithm::kRandom),
            "Random");
  EXPECT_EQ(SegmentationAlgorithmName(SegmentationAlgorithm::kRc), "RC");
  EXPECT_EQ(SegmentationAlgorithmName(SegmentationAlgorithm::kGreedy),
            "Greedy");
  EXPECT_EQ(SegmentationAlgorithmName(SegmentationAlgorithm::kRandomRc),
            "Random-RC");
  EXPECT_EQ(SegmentationAlgorithmName(SegmentationAlgorithm::kRandomGreedy),
            "Random-Greedy");
}

TEST(OssmBuilderTest, MakeSegmenterMatchesNames) {
  for (SegmentationAlgorithm algorithm :
       {SegmentationAlgorithm::kRandom, SegmentationAlgorithm::kRc,
        SegmentationAlgorithm::kGreedy, SegmentationAlgorithm::kRandomRc,
        SegmentationAlgorithm::kRandomGreedy}) {
    std::unique_ptr<Segmenter> segmenter = MakeSegmenter(algorithm);
    ASSERT_NE(segmenter, nullptr);
    EXPECT_EQ(segmenter->name(), SegmentationAlgorithmName(algorithm));
  }
}

TEST(OssmBuilderTest, BuildsRequestedSegmentCount) {
  TransactionDatabase db = SmallQuest();
  OssmBuildOptions options;
  options.algorithm = SegmentationAlgorithm::kRandom;
  options.target_segments = 12;
  options.transactions_per_page = 50;
  StatusOr<OssmBuildResult> result = BuildOssm(db, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->map.num_segments(), 12u);
  EXPECT_EQ(result->map.num_items(), db.num_items());
}

TEST(OssmBuilderTest, SingletonSupportsMatchDatabase) {
  TransactionDatabase db = SmallQuest();
  OssmBuildOptions options;
  options.algorithm = SegmentationAlgorithm::kRc;
  options.target_segments = 8;
  options.transactions_per_page = 100;
  StatusOr<OssmBuildResult> result = BuildOssm(db, options);
  ASSERT_TRUE(result.ok());

  std::vector<uint64_t> supports = db.ComputeItemSupports();
  for (ItemId item = 0; item < db.num_items(); ++item) {
    EXPECT_EQ(result->map.Support(item), supports[item]) << "item " << item;
  }
}

TEST(OssmBuilderTest, PageAssignmentCoversAllPages) {
  TransactionDatabase db = SmallQuest();
  OssmBuildOptions options;
  options.algorithm = SegmentationAlgorithm::kRandomRc;
  options.target_segments = 6;
  options.intermediate_segments = 15;
  options.transactions_per_page = 80;
  StatusOr<OssmBuildResult> result = BuildOssm(db, options);
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(result->page_to_segment.size(), result->layout.num_pages());
  std::vector<int> seen(result->map.num_segments(), 0);
  for (uint32_t seg : result->page_to_segment) {
    ASSERT_LT(seg, result->map.num_segments());
    seen[seg] = 1;
  }
  for (int s : seen) EXPECT_EQ(s, 1);  // every segment owns >= 1 page
}

TEST(OssmBuilderTest, AllAlgorithmsProduceValidMaps) {
  TransactionDatabase db = SmallQuest(3);
  std::vector<uint64_t> supports = db.ComputeItemSupports();
  for (SegmentationAlgorithm algorithm :
       {SegmentationAlgorithm::kRandom, SegmentationAlgorithm::kRc,
        SegmentationAlgorithm::kGreedy, SegmentationAlgorithm::kRandomRc,
        SegmentationAlgorithm::kRandomGreedy}) {
    OssmBuildOptions options;
    options.algorithm = algorithm;
    options.target_segments = 5;
    options.intermediate_segments = 10;
    options.transactions_per_page = 200;
    StatusOr<OssmBuildResult> result = BuildOssm(db, options);
    ASSERT_TRUE(result.ok()) << SegmentationAlgorithmName(algorithm);
    EXPECT_EQ(result->map.num_segments(), 5u);
    for (ItemId item = 0; item < db.num_items(); ++item) {
      EXPECT_EQ(result->map.Support(item), supports[item]);
    }
  }
}

TEST(OssmBuilderTest, BubbleFractionSpeedsUpGreedy) {
  TransactionDatabase db = SmallQuest(5);
  OssmBuildOptions full;
  full.algorithm = SegmentationAlgorithm::kGreedy;
  full.target_segments = 5;
  full.transactions_per_page = 50;

  OssmBuildOptions bubbled = full;
  bubbled.bubble_fraction = 0.1;
  bubbled.bubble_threshold = 0.01;

  StatusOr<OssmBuildResult> full_result = BuildOssm(db, full);
  StatusOr<OssmBuildResult> bubbled_result = BuildOssm(db, bubbled);
  ASSERT_TRUE(full_result.ok());
  ASSERT_TRUE(bubbled_result.ok());
  // Same number of ossub evaluations, but each sorts ~0.1 m sums instead
  // of m; wall time must drop noticeably on any machine.
  EXPECT_EQ(bubbled_result->map.num_segments(), 5u);
  EXPECT_LT(bubbled_result->stats.seconds, full_result->stats.seconds);
}

TEST(OssmBuilderTest, MemoryFootprintScalesWithSegments) {
  TransactionDatabase db = SmallQuest(7);
  OssmBuildOptions options;
  options.algorithm = SegmentationAlgorithm::kRandom;
  options.transactions_per_page = 50;
  options.target_segments = 10;
  StatusOr<OssmBuildResult> ten = BuildOssm(db, options);
  options.target_segments = 20;
  StatusOr<OssmBuildResult> twenty = BuildOssm(db, options);
  ASSERT_TRUE(ten.ok());
  ASSERT_TRUE(twenty.ok());
  EXPECT_EQ(twenty->map.MemoryFootprintBytes(),
            2 * ten->map.MemoryFootprintBytes());
}

TEST(OssmBuilderTest, RejectsBadBubbleFraction) {
  TransactionDatabase db = SmallQuest(9);
  // NaN compares false with everything, so a range check must be negated
  // to catch it.
  for (double bad : {1.5, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(bad);
    OssmBuildOptions options;
    options.bubble_fraction = bad;
    EXPECT_EQ(BuildOssm(db, options).status().code(),
              StatusCode::kInvalidArgument);
    options.bubble_fraction = 0.1;
    options.bubble_threshold = bad;
    EXPECT_EQ(BuildOssm(db, options).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(OssmBuilderTest, RejectsEmptyDatabase) {
  TransactionDatabase db(10);
  OssmBuildOptions options;
  EXPECT_EQ(BuildOssm(db, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RecommendStrategyTest, FollowsFigure7) {
  // Skewed data with a generous budget: Random suffices.
  EXPECT_EQ(RecommendStrategy(true, false, false),
            SegmentationAlgorithm::kRandom);
  EXPECT_EQ(RecommendStrategy(true, true, true),
            SegmentationAlgorithm::kRandom);
  // Segmentation cost no issue: pure Greedy.
  EXPECT_EQ(RecommendStrategy(false, false, false),
            SegmentationAlgorithm::kGreedy);
  EXPECT_EQ(RecommendStrategy(false, false, true),
            SegmentationAlgorithm::kGreedy);
  // Cost matters, very many pages: Random-RC.
  EXPECT_EQ(RecommendStrategy(false, true, true),
            SegmentationAlgorithm::kRandomRc);
  // Cost matters, moderate pages: Random-Greedy (or Random-RC if quality
  // preference is relaxed).
  EXPECT_EQ(RecommendStrategy(false, true, false),
            SegmentationAlgorithm::kRandomGreedy);
  EXPECT_EQ(RecommendStrategy(false, true, false, false),
            SegmentationAlgorithm::kRandomRc);
}

}  // namespace
}  // namespace ossm

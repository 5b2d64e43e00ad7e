#include "mining/apriori.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/ossm_builder.h"
#include "datagen/quest_generator.h"
#include "datagen/skewed_generator.h"
#include "tests/mining_test_util.h"

namespace ossm {
namespace {

TEST(AprioriTest, TinyDatabaseByHand) {
  TransactionDatabase db = test::TinyDb();
  AprioriConfig config;
  config.min_support_count = 4;
  StatusOr<MiningResult> result = MineApriori(db, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Supports: 0->6, 1->6, 2->5, 3->2, 4->1; pairs: {0,1}->5, {0,2}->4,
  // {1,2}->4; triple {0,1,2}->3 (below threshold 4).
  std::vector<FrequentItemset> expected = {
      {{0}, 6}, {{1}, 6}, {{2}, 5}, {{0, 1}, 5}, {{0, 2}, 4}, {{1, 2}, 4},
  };
  EXPECT_EQ(result->itemsets, expected);
}

TEST(AprioriTest, MatchesBruteForceOnRandomData) {
  QuestConfig gen;
  gen.num_items = 12;
  gen.num_transactions = 400;
  gen.avg_transaction_size = 4;
  gen.avg_pattern_size = 3;
  gen.num_patterns = 5;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    gen.seed = seed;
    StatusOr<TransactionDatabase> db = GenerateQuest(gen);
    ASSERT_TRUE(db.ok());
    AprioriConfig config;
    config.min_support_count = 20;
    StatusOr<MiningResult> result = MineApriori(*db, config);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->itemsets, test::BruteForceFrequent(*db, 20))
        << "seed " << seed;
  }
}

TEST(AprioriTest, FractionalThresholdMatchesAbsolute) {
  TransactionDatabase db = test::TinyDb();  // 8 transactions
  AprioriConfig fraction;
  fraction.min_support_fraction = 0.5;  // ceil(0.5 * 8) = 4
  AprioriConfig absolute;
  absolute.min_support_count = 4;
  StatusOr<MiningResult> a = MineApriori(db, fraction);
  StatusOr<MiningResult> b = MineApriori(db, absolute);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->SamePatternsAs(*b));
}

// The threshold rule every miner shares (MinSupportCount).
TEST(AprioriTest, EffectiveMinSupportRounding) {
  EXPECT_EQ(*MinSupportCount(0.01, 0, 1000), 10u);
  EXPECT_EQ(*MinSupportCount(0.01, 0, 1001), 11u);  // ceil
  EXPECT_EQ(*MinSupportCount(0.01, 0, 5), 1u);      // floor at 1
  EXPECT_EQ(*MinSupportCount(1.0, 0, 1000), 1000u);
  EXPECT_EQ(*MinSupportCount(0.01, 7, 1000), 7u);   // absolute wins
  EXPECT_EQ(*MinSupportCount(std::nan(""), 7, 1000), 7u);  // fraction unused

  for (double bad : {std::nan(""), 0.0, -1.0, 2.0}) {
    StatusOr<uint64_t> rejected = MinSupportCount(bad, 0, 1000);
    ASSERT_FALSE(rejected.ok()) << bad;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  AprioriConfig config;
  config.min_support_fraction = std::nan("");
  EXPECT_FALSE(MineApriori(test::TinyDb(), config).ok());
}

TEST(AprioriTest, MaxLevelStopsEarly) {
  TransactionDatabase db = test::TinyDb();
  AprioriConfig config;
  config.min_support_count = 3;
  config.max_level = 1;
  StatusOr<MiningResult> result = MineApriori(db, config);
  ASSERT_TRUE(result.ok());
  for (const FrequentItemset& f : result->itemsets) {
    EXPECT_EQ(f.items.size(), 1u);
  }
}

TEST(AprioriTest, OssmPrunerDoesNotChangeResults) {
  // Seasonal data: cross-season pairs of individually frequent items have a
  // segment-wise bound far below the threshold, so the OSSM must prune.
  SkewedConfig gen;
  gen.num_items = 40;
  gen.num_transactions = 2000;
  gen.avg_transaction_size = 6;
  gen.in_season_boost = 8.0;
  gen.seed = 5;
  StatusOr<TransactionDatabase> db = GenerateSkewed(gen);
  ASSERT_TRUE(db.ok());

  OssmBuildOptions build_options;
  build_options.algorithm = SegmentationAlgorithm::kGreedy;
  build_options.target_segments = 10;
  build_options.transactions_per_page = 50;
  StatusOr<OssmBuildResult> build = BuildOssm(*db, build_options);
  ASSERT_TRUE(build.ok());
  OssmPruner pruner(&build->map);

  AprioriConfig without;
  without.min_support_fraction = 0.05;
  AprioriConfig with = without;
  with.pruner = &pruner;

  StatusOr<MiningResult> a = MineApriori(*db, without);
  StatusOr<MiningResult> b = MineApriori(*db, with);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->SamePatternsAs(*b));

  // The pruner must actually prune something on correlated data...
  EXPECT_GT(b->stats.TotalPrunedByBound(), 0u);
  // ...and the counted candidates shrink accordingly.
  EXPECT_LT(b->stats.CountedAtLevel(2), a->stats.CountedAtLevel(2));
  // L1 came straight from the OSSM: one scan fewer.
  EXPECT_EQ(b->stats.database_scans + 1, a->stats.database_scans);
}

TEST(AprioriTest, StatsLevelAccounting) {
  TransactionDatabase db = test::TinyDb();
  AprioriConfig config;
  config.min_support_count = 4;
  StatusOr<MiningResult> result = MineApriori(db, config);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->stats.levels.size(), 2u);

  const LevelStats& level1 = result->stats.levels[0];
  EXPECT_EQ(level1.level, 1u);
  EXPECT_EQ(level1.frequent, 3u);  // items 0, 1, 2

  const LevelStats& level2 = result->stats.levels[1];
  EXPECT_EQ(level2.level, 2u);
  EXPECT_EQ(level2.candidates_generated, 3u);  // pairs of 3 frequent items
  EXPECT_EQ(level2.candidates_counted, 3u);    // no pruner installed
  EXPECT_EQ(level2.frequent, 3u);
}

TEST(AprioriTest, NoFrequentItemsMeansEmptyResult) {
  TransactionDatabase db = test::TinyDb();
  AprioriConfig config;
  config.min_support_count = 100;
  StatusOr<MiningResult> result = MineApriori(db, config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->itemsets.empty());
}

TEST(AprioriTest, RejectsBadFraction) {
  TransactionDatabase db = test::TinyDb();
  AprioriConfig config;
  config.min_support_fraction = 0.0;
  EXPECT_EQ(MineApriori(db, config).status().code(),
            StatusCode::kInvalidArgument);
  config.min_support_fraction = 1.5;
  EXPECT_EQ(MineApriori(db, config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AprioriTest, SupportsAreExactWithPruner) {
  // Beyond pattern equality: the reported supports with an OSSM installed
  // are exact, not bounds.
  TransactionDatabase db = test::TinyDb();
  OssmBuildOptions build_options;
  build_options.algorithm = SegmentationAlgorithm::kRandom;
  build_options.target_segments = 2;
  build_options.transactions_per_page = 2;
  StatusOr<OssmBuildResult> build = BuildOssm(db, build_options);
  ASSERT_TRUE(build.ok());
  OssmPruner pruner(&build->map);

  AprioriConfig config;
  config.min_support_count = 4;
  config.pruner = &pruner;
  StatusOr<MiningResult> result = MineApriori(db, config);
  ASSERT_TRUE(result.ok());
  for (const FrequentItemset& f : result->itemsets) {
    uint64_t expected = 0;
    for (uint64_t t = 0; t < db.num_transactions(); ++t) {
      if (db.Contains(t, f.items)) ++expected;
    }
    EXPECT_EQ(f.support, expected);
  }
}

}  // namespace
}  // namespace ossm

// The determinism matrix the parallel subsystem promises: every miner, the
// OSSM build, and their stats are bit-identical for OSSM_THREADS = 1, 2, 8
// on the same workload. Thread counts are swept in-process through
// parallel::SetDefaultThreadCount (OSSM_THREADS is only read once).

#include <gtest/gtest.h>

#include <vector>

#include "core/ossm_builder.h"
#include "datagen/quest_generator.h"
#include "mining/apriori.h"
#include "mining/dhp.h"
#include "mining/eclat.h"
#include "mining/mining_result.h"
#include "mining/ndi.h"
#include "mining/partition.h"
#include "parallel/thread_pool.h"

namespace ossm {
namespace {

constexpr uint32_t kThreadCounts[] = {1, 2, 8};

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    QuestConfig gen;
    gen.num_items = 60;
    gen.num_transactions = 2000;
    gen.avg_transaction_size = 8.0;
    gen.avg_pattern_size = 3.0;
    gen.num_patterns = 20;
    gen.seed = 42;
    StatusOr<TransactionDatabase> db = GenerateQuest(gen);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_.emplace(std::move(*db));
  }

  void TearDown() override { parallel::SetDefaultThreadCount(1); }

  const TransactionDatabase& db() const { return *db_; }

  std::optional<TransactionDatabase> db_;
};

void ExpectSameResult(const MiningResult& base, const MiningResult& got,
                      uint32_t threads) {
  EXPECT_TRUE(base.SamePatternsAs(got)) << "threads=" << threads;
  EXPECT_EQ(base.itemsets, got.itemsets) << "threads=" << threads;
  EXPECT_EQ(base.stats.database_scans, got.stats.database_scans)
      << "threads=" << threads;
  ASSERT_EQ(base.stats.levels.size(), got.stats.levels.size())
      << "threads=" << threads;
  for (size_t l = 0; l < base.stats.levels.size(); ++l) {
    const LevelStats& a = base.stats.levels[l];
    const LevelStats& b = got.stats.levels[l];
    EXPECT_EQ(a.level, b.level) << "threads=" << threads << " level " << l;
    EXPECT_EQ(a.candidates_generated, b.candidates_generated)
        << "threads=" << threads << " level " << l;
    EXPECT_EQ(a.pruned_by_bound, b.pruned_by_bound)
        << "threads=" << threads << " level " << l;
    EXPECT_EQ(a.pruned_by_hash, b.pruned_by_hash)
        << "threads=" << threads << " level " << l;
    EXPECT_EQ(a.candidates_counted, b.candidates_counted)
        << "threads=" << threads << " level " << l;
    EXPECT_EQ(a.frequent, b.frequent) << "threads=" << threads << " level "
                                      << l;
  }
}

TEST_F(ParallelDeterminismTest, AprioriIsThreadCountInvariant) {
  AprioriConfig config;
  config.min_support_fraction = 0.02;
  MiningResult base;
  for (uint32_t threads : kThreadCounts) {
    parallel::SetDefaultThreadCount(threads);
    StatusOr<MiningResult> result = MineApriori(db(), config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->itemsets.empty());
    if (threads == 1) {
      base = std::move(*result);
    } else {
      ExpectSameResult(base, *result, threads);
    }
  }
}

TEST_F(ParallelDeterminismTest, DhpIsThreadCountInvariant) {
  DhpConfig config;
  config.min_support_fraction = 0.02;
  config.num_buckets = 512;
  MiningResult base;
  for (uint32_t threads : kThreadCounts) {
    parallel::SetDefaultThreadCount(threads);
    StatusOr<MiningResult> result = MineDhp(db(), config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->itemsets.empty());
    if (threads == 1) {
      base = std::move(*result);
    } else {
      ExpectSameResult(base, *result, threads);
    }
  }
}

TEST_F(ParallelDeterminismTest, EclatIsThreadCountInvariant) {
  EclatConfig config;
  config.min_support_fraction = 0.02;
  MiningResult base;
  for (uint32_t threads : kThreadCounts) {
    parallel::SetDefaultThreadCount(threads);
    StatusOr<MiningResult> result = MineEclat(db(), config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->itemsets.empty());
    if (threads == 1) {
      base = std::move(*result);
    } else {
      ExpectSameResult(base, *result, threads);
    }
  }
}

TEST_F(ParallelDeterminismTest, NdiIsThreadCountInvariant) {
  NdiConfig config;
  config.min_support_fraction = 0.02;
  MiningResult base;
  for (uint32_t threads : kThreadCounts) {
    parallel::SetDefaultThreadCount(threads);
    StatusOr<MiningResult> result = MineNdi(db(), config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->itemsets.empty());
    if (threads == 1) {
      base = std::move(*result);
    } else {
      ExpectSameResult(base, *result, threads);
    }
  }
}

TEST_F(ParallelDeterminismTest, PartitionIsThreadCountInvariant) {
  PartitionConfig config;
  config.min_support_fraction = 0.02;
  config.num_partitions = 4;
  config.use_ossm = true;
  MiningResult base;
  for (uint32_t threads : kThreadCounts) {
    parallel::SetDefaultThreadCount(threads);
    StatusOr<MiningResult> result = MinePartition(db(), config, nullptr);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->itemsets.empty());
    if (threads == 1) {
      base = std::move(*result);
    } else {
      ExpectSameResult(base, *result, threads);
    }
  }
}

TEST_F(ParallelDeterminismTest, BuildOssmGreedyIsThreadCountInvariant) {
  OssmBuildOptions options;
  options.algorithm = SegmentationAlgorithm::kGreedy;
  options.target_segments = 8;
  options.transactions_per_page = 25;  // 80 pages -> a real greedy run
  SegmentSupportMap base_map;
  std::vector<uint32_t> base_assignment;
  uint64_t base_evaluations = 0;
  for (uint32_t threads : kThreadCounts) {
    parallel::SetDefaultThreadCount(threads);
    StatusOr<OssmBuildResult> built = BuildOssm(db(), options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    if (threads == 1) {
      base_map = std::move(built->map);
      base_assignment = std::move(built->page_to_segment);
      base_evaluations = built->stats.ossub_evaluations;
    } else {
      // The map, the page partition, and even the evaluation count must not
      // depend on the thread count.
      EXPECT_TRUE(base_map == built->map) << "threads=" << threads;
      EXPECT_EQ(base_assignment, built->page_to_segment)
          << "threads=" << threads;
      EXPECT_EQ(base_evaluations, built->stats.ossub_evaluations)
          << "threads=" << threads;
    }
  }
}

TEST_F(ParallelDeterminismTest, ComputeItemSupportsIsThreadCountInvariant) {
  // Big enough to clear the parallel floor in ComputeItemSupports (2^16
  // stored items), so the sharded histogram path actually runs.
  TransactionDatabase big(16);
  for (uint64_t t = 0; t < 12000; ++t) {
    std::vector<ItemId> txn;
    for (ItemId i = 0; i < 16; ++i) {
      if ((t >> (i % 13)) & 1 || i % 3 == t % 3) txn.push_back(i);
    }
    ASSERT_TRUE(big.Append(txn).ok());
  }
  std::vector<uint64_t> base;
  for (uint32_t threads : kThreadCounts) {
    parallel::SetDefaultThreadCount(threads);
    std::vector<uint64_t> supports = big.ComputeItemSupports();
    if (threads == 1) {
      base = std::move(supports);
    } else {
      EXPECT_EQ(base, supports) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace ossm

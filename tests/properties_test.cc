// Property-based sweeps over the library's core invariants, parameterized
// over random seeds and dataset shapes (TEST_P / INSTANTIATE_TEST_SUITE_P).

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/random.h"
#include "core/ossm_builder.h"
#include "core/segment_support_map.h"
#include "core/theory.h"
#include "datagen/alarm_generator.h"
#include "datagen/quest_generator.h"
#include "datagen/skewed_generator.h"
#include "mining/apriori.h"
#include "mining/candidate_pruner.h"

namespace ossm {
namespace {

enum class DataKind { kQuest, kSkewed, kAlarm };

TransactionDatabase MakeData(DataKind kind, uint64_t seed) {
  switch (kind) {
    case DataKind::kQuest: {
      QuestConfig config;
      config.num_items = 40;
      config.num_transactions = 1500;
      config.avg_transaction_size = 6;
      config.avg_pattern_size = 3;
      config.num_patterns = 10;
      config.seed = seed;
      StatusOr<TransactionDatabase> db = GenerateQuest(config);
      EXPECT_TRUE(db.ok());
      return std::move(db).value();
    }
    case DataKind::kSkewed: {
      SkewedConfig config;
      config.num_items = 40;
      config.num_transactions = 1500;
      config.avg_transaction_size = 6;
      config.seed = seed;
      StatusOr<TransactionDatabase> db = GenerateSkewed(config);
      EXPECT_TRUE(db.ok());
      return std::move(db).value();
    }
    case DataKind::kAlarm: {
      AlarmConfig config;
      config.num_alarm_types = 40;
      config.num_windows = 1500;
      config.seed = seed;
      StatusOr<TransactionDatabase> db = GenerateAlarms(config);
      EXPECT_TRUE(db.ok());
      return std::move(db).value();
    }
  }
  OSSM_CHECK(false);
  return TransactionDatabase(1);
}

uint64_t TrueSupport(const TransactionDatabase& db, const Itemset& items) {
  uint64_t count = 0;
  for (uint64_t t = 0; t < db.num_transactions(); ++t) {
    if (db.Contains(t, items)) ++count;
  }
  return count;
}

using BoundParams =
    std::tuple<DataKind, SegmentationAlgorithm, uint64_t /*segments*/>;

class BoundValidityTest : public testing::TestWithParam<BoundParams> {};

// The fundamental soundness property of equation (1): for every itemset,
// true support <= OSSM bound <= single-segment bound.
TEST_P(BoundValidityTest, BoundSandwich) {
  auto [kind, algorithm, segments] = GetParam();
  TransactionDatabase db = MakeData(kind, 42);

  OssmBuildOptions options;
  options.algorithm = algorithm;
  options.target_segments = segments;
  options.intermediate_segments = segments * 2;
  options.transactions_per_page = 30;
  StatusOr<OssmBuildResult> build = BuildOssm(db, options);
  ASSERT_TRUE(build.ok());
  const SegmentSupportMap& map = build->map;

  SegmentSupportMap flat =
      SegmentSupportMap::SingleSegment(db.ComputeItemSupports());

  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    size_t size = 2 + rng.UniformInt(4);
    Itemset items;
    while (items.size() < size) {
      ItemId item = static_cast<ItemId>(rng.UniformInt(db.num_items()));
      if (std::find(items.begin(), items.end(), item) == items.end()) {
        items.push_back(item);
      }
    }
    std::sort(items.begin(), items.end());

    uint64_t truth = TrueSupport(db, items);
    uint64_t bound = map.UpperBound(items);
    uint64_t flat_bound = flat.UpperBound(items);
    ASSERT_GE(bound, truth) << "bound must never undercut the support";
    ASSERT_LE(bound, flat_bound)
        << "segmentation must never be worse than no segmentation";
  }
}

std::string DataKindName(DataKind kind) {
  switch (kind) {
    case DataKind::kQuest:
      return "Quest";
    case DataKind::kSkewed:
      return "Skewed";
    case DataKind::kAlarm:
      return "Alarm";
  }
  return "Unknown";
}

std::string BoundParamsName(const testing::TestParamInfo<BoundParams>& info) {
  std::string name = DataKindName(std::get<0>(info.param));
  name += std::string(SegmentationAlgorithmName(std::get<1>(info.param)));
  name += 'N';
  name += std::to_string(std::get<2>(info.param));
  std::erase(name, '-');
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, BoundValidityTest,
    testing::Combine(testing::Values(DataKind::kQuest, DataKind::kSkewed,
                                     DataKind::kAlarm),
                     testing::Values(SegmentationAlgorithm::kRandom,
                                     SegmentationAlgorithm::kRc,
                                     SegmentationAlgorithm::kGreedy,
                                     SegmentationAlgorithm::kRandomRc,
                                     SegmentationAlgorithm::kRandomGreedy),
                     testing::Values(uint64_t{4}, uint64_t{12})),
    BoundParamsName);

// Refinement monotonicity: an OSSM with more segments (refining the same
// page order) never gives a looser bound than a coarser contiguous one.
class RefinementTest : public testing::TestWithParam<uint64_t> {};

TEST_P(RefinementTest, ContiguousRefinementTightensBounds) {
  uint64_t seed = GetParam();
  TransactionDatabase db = MakeData(DataKind::kSkewed, seed);

  StatusOr<PageLayout> layout = MakePageLayout(db, 25);
  ASSERT_TRUE(layout.ok());
  PageItemCounts pages(db, *layout);
  std::vector<Segment> fine_segments = SegmentsFromPages(pages);

  // Coarse: fold pairs of adjacent fine segments together.
  std::vector<Segment> coarse_segments;
  for (size_t s = 0; s < fine_segments.size(); s += 2) {
    Segment merged = fine_segments[s];
    if (s + 1 < fine_segments.size()) {
      Segment copy = fine_segments[s + 1];
      MergeSegmentInto(merged, std::move(copy));
    }
    coarse_segments.push_back(std::move(merged));
  }

  SegmentSupportMap fine = SegmentSupportMap::FromSegments(
      std::span<const Segment>(SegmentsFromPages(pages)));
  SegmentSupportMap coarse = SegmentSupportMap::FromSegments(
      std::span<const Segment>(coarse_segments));

  Rng rng(seed * 31 + 1);
  for (int trial = 0; trial < 300; ++trial) {
    ItemId a = static_cast<ItemId>(rng.UniformInt(db.num_items()));
    ItemId b = static_cast<ItemId>(rng.UniformInt(db.num_items()));
    if (a == b) continue;
    EXPECT_LE(fine.UpperBoundPair(a, b), coarse.UpperBoundPair(a, b));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefinementTest,
                         testing::Values(1, 2, 3, 4, 5));

// Lossless pruning, the user-facing contract: Apriori with any OSSM pruner
// mines exactly the same patterns as Apriori without one.
using LosslessParams = std::tuple<DataKind, uint64_t /*seed*/, double>;

class LosslessPruningTest : public testing::TestWithParam<LosslessParams> {};

TEST_P(LosslessPruningTest, PatternsIdenticalWithAndWithoutOssm) {
  auto [kind, seed, threshold] = GetParam();
  TransactionDatabase db = MakeData(kind, seed);

  OssmBuildOptions build_options;
  build_options.algorithm = SegmentationAlgorithm::kRandomGreedy;
  build_options.target_segments = 8;
  build_options.intermediate_segments = 16;
  build_options.transactions_per_page = 25;
  StatusOr<OssmBuildResult> build = BuildOssm(db, build_options);
  ASSERT_TRUE(build.ok());
  OssmPruner pruner(&build->map);

  AprioriConfig without;
  without.min_support_fraction = threshold;
  AprioriConfig with = without;
  with.pruner = &pruner;

  StatusOr<MiningResult> a = MineApriori(db, without);
  StatusOr<MiningResult> b = MineApriori(db, with);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(a->SamePatternsAs(*b));
  // Pruning may only ever reduce counting work.
  EXPECT_LE(b->stats.TotalCandidatesCounted(),
            a->stats.TotalCandidatesCounted());
}

std::string LosslessParamsName(
    const testing::TestParamInfo<LosslessParams>& info) {
  std::string name = DataKindName(std::get<0>(info.param));
  name += 'S';
  name += std::to_string(std::get<1>(info.param));
  name += std::get<2>(info.param) < 0.02 ? "T1pc" : "T5pc";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LosslessPruningTest,
    testing::Combine(testing::Values(DataKind::kQuest, DataKind::kSkewed,
                                     DataKind::kAlarm),
                     testing::Values(uint64_t{1}, uint64_t{2}, uint64_t{3}),
                     testing::Values(0.01, 0.05)),
    LosslessParamsName);

// Query independence (Section 3): one OSSM, built once, serves any support
// threshold without loss.
TEST(QueryIndependenceTest, OneMapManyThresholds) {
  TransactionDatabase db = MakeData(DataKind::kQuest, 77);
  OssmBuildOptions build_options;
  build_options.algorithm = SegmentationAlgorithm::kGreedy;
  build_options.target_segments = 10;
  build_options.transactions_per_page = 30;
  // Built with a bubble list tuned to 0.25%, as in Figure 6...
  build_options.bubble_fraction = 0.3;
  build_options.bubble_threshold = 0.0025;
  StatusOr<OssmBuildResult> build = BuildOssm(db, build_options);
  ASSERT_TRUE(build.ok());
  OssmPruner pruner(&build->map);

  // ...then queried at quite different thresholds.
  for (double threshold : {0.005, 0.01, 0.02, 0.08}) {
    AprioriConfig without;
    without.min_support_fraction = threshold;
    AprioriConfig with = without;
    with.pruner = &pruner;
    StatusOr<MiningResult> a = MineApriori(db, without);
    StatusOr<MiningResult> b = MineApriori(db, with);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(a->SamePatternsAs(*b)) << "threshold " << threshold;
  }
}

// The skew claim (Section 3): "the more skewed the data, the more effective
// the OSSM" — a segmented map on seasonal data prunes more of the
// candidate space than on uniform data of the same shape.
TEST(SkewEffectivenessTest, SkewedDataPrunesMore) {
  SkewedConfig skewed_config;
  skewed_config.num_items = 40;
  skewed_config.num_transactions = 2000;
  skewed_config.avg_transaction_size = 6;
  skewed_config.in_season_boost = 10.0;
  skewed_config.seed = 5;
  StatusOr<TransactionDatabase> skewed = GenerateSkewed(skewed_config);
  ASSERT_TRUE(skewed.ok());

  SkewedConfig uniform_config = skewed_config;
  uniform_config.in_season_boost = 1.0;  // no seasons
  StatusOr<TransactionDatabase> uniform = GenerateSkewed(uniform_config);
  ASSERT_TRUE(uniform.ok());

  auto pruned_fraction = [](const TransactionDatabase& db) {
    OssmBuildOptions build_options;
    build_options.algorithm = SegmentationAlgorithm::kGreedy;
    build_options.target_segments = 10;
    build_options.transactions_per_page = 25;
    StatusOr<OssmBuildResult> build = BuildOssm(db, build_options);
    EXPECT_TRUE(build.ok());
    OssmPruner pruner(&build->map);
    AprioriConfig config;
    config.min_support_fraction = 0.02;
    config.pruner = &pruner;
    StatusOr<MiningResult> result = MineApriori(db, config);
    EXPECT_TRUE(result.ok());
    uint64_t generated = result->stats.GeneratedAtLevel(2);
    uint64_t pruned = 0;
    for (const LevelStats& l : result->stats.levels) {
      if (l.level == 2) pruned = l.pruned_by_bound;
    }
    return generated == 0
               ? 0.0
               : static_cast<double>(pruned) / static_cast<double>(generated);
  };

  EXPECT_GT(pruned_fraction(*skewed), pruned_fraction(*uniform));
}

}  // namespace
}  // namespace ossm

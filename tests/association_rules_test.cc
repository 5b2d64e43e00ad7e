#include "mining/association_rules.h"

#include "mining/itemset.h"

#include <gtest/gtest.h>

#include <limits>

#include "datagen/quest_generator.h"
#include "mining/apriori.h"
#include "tests/mining_test_util.h"

namespace ossm {
namespace {

// Frequent itemsets of TinyDb at absolute support 4 (8 transactions):
// {0}:6 {1}:6 {2}:5 {0,1}:5 {0,2}:4 {1,2}:4.
std::vector<FrequentItemset> TinyFrequent() {
  return {
      {{0}, 6}, {{1}, 6}, {{2}, 5}, {{0, 1}, 5}, {{0, 2}, 4}, {{1, 2}, 4},
  };
}

TEST(AssociationRulesTest, ConfidenceComputedExactly) {
  RuleConfig config;
  config.min_confidence = 0.0;
  StatusOr<std::vector<AssociationRule>> rules =
      GenerateRules(TinyFrequent(), 8, config);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();

  // Every 2-itemset yields two rules; 6 rules total.
  EXPECT_EQ(rules->size(), 6u);
  for (const AssociationRule& rule : *rules) {
    if (rule.antecedent == Itemset{0} && rule.consequent == Itemset{1}) {
      EXPECT_DOUBLE_EQ(rule.confidence, 5.0 / 6.0);
      EXPECT_EQ(rule.support, 5u);
      // lift = (5/6) / (6/8) = 10/9.
      EXPECT_NEAR(rule.lift, 10.0 / 9.0, 1e-12);
    }
    if (rule.antecedent == Itemset{2} && rule.consequent == Itemset{0}) {
      EXPECT_DOUBLE_EQ(rule.confidence, 4.0 / 5.0);
    }
  }
}

TEST(AssociationRulesTest, MinConfidenceFilters) {
  RuleConfig config;
  config.min_confidence = 0.82;
  StatusOr<std::vector<AssociationRule>> rules =
      GenerateRules(TinyFrequent(), 8, config);
  ASSERT_TRUE(rules.ok());
  // Only 0=>1 and 1=>0 have confidence 5/6 ~ 0.833.
  ASSERT_EQ(rules->size(), 2u);
  for (const AssociationRule& rule : *rules) {
    EXPECT_GE(rule.confidence, 0.82);
  }
}

TEST(AssociationRulesTest, SortedByConfidenceDescending) {
  RuleConfig config;
  config.min_confidence = 0.0;
  StatusOr<std::vector<AssociationRule>> rules =
      GenerateRules(TinyFrequent(), 8, config);
  ASSERT_TRUE(rules.ok());
  for (size_t i = 1; i < rules->size(); ++i) {
    EXPECT_GE((*rules)[i - 1].confidence, (*rules)[i].confidence);
  }
}

TEST(AssociationRulesTest, MultiItemConsequents) {
  // One frequent triple: {0,1,2} with all subsets present.
  std::vector<FrequentItemset> frequent = {
      {{0}, 10}, {{1}, 10}, {{2}, 10},      {{0, 1}, 8},
      {{0, 2}, 8}, {{1, 2}, 8}, {{0, 1, 2}, 8},
  };
  RuleConfig config;
  config.min_confidence = 0.75;
  StatusOr<std::vector<AssociationRule>> rules =
      GenerateRules(frequent, 20, config);
  ASSERT_TRUE(rules.ok());

  // 0 => {1,2} has confidence 8/10 = 0.8 and must be present.
  bool found = false;
  for (const AssociationRule& rule : *rules) {
    if (rule.antecedent == Itemset{0} &&
        rule.consequent == Itemset{1, 2}) {
      found = true;
      EXPECT_DOUBLE_EQ(rule.confidence, 0.8);
    }
    // Antecedent and consequent are always disjoint and non-empty.
    EXPECT_FALSE(rule.antecedent.empty());
    EXPECT_FALSE(rule.consequent.empty());
    Itemset overlap;
    std::set_intersection(rule.antecedent.begin(), rule.antecedent.end(),
                          rule.consequent.begin(), rule.consequent.end(),
                          std::back_inserter(overlap));
    EXPECT_TRUE(overlap.empty());
  }
  EXPECT_TRUE(found);
}

TEST(AssociationRulesTest, AntiMonotonePruningMatchesBruteForce) {
  // On a real mining result, the level-wise consequent growth must produce
  // exactly the rules a brute-force scan over all (antecedent, consequent)
  // splits produces.
  QuestConfig gen;
  gen.num_items = 14;
  gen.num_transactions = 500;
  gen.avg_transaction_size = 5;
  gen.num_patterns = 6;
  gen.corruption_mean = 0.2;
  gen.seed = 3;
  StatusOr<TransactionDatabase> db = GenerateQuest(gen);
  ASSERT_TRUE(db.ok());
  AprioriConfig apriori_config;
  apriori_config.min_support_count = 25;
  StatusOr<MiningResult> mined = MineApriori(*db, apriori_config);
  ASSERT_TRUE(mined.ok());

  RuleConfig config;
  config.min_confidence = 0.6;
  StatusOr<std::vector<AssociationRule>> rules =
      GenerateRules(mined->itemsets, db->num_transactions(), config);
  ASSERT_TRUE(rules.ok());

  // Brute force: every frequent itemset, every proper non-empty subset as
  // consequent.
  std::unordered_map<Itemset, uint64_t, ItemsetHasher> support;
  for (const FrequentItemset& f : mined->itemsets) {
    support.emplace(f.items, f.support);
  }
  size_t brute_count = 0;
  for (const FrequentItemset& f : mined->itemsets) {
    size_t k = f.items.size();
    if (k < 2) continue;
    for (uint32_t mask = 1; mask + 1 < (1u << k); ++mask) {
      Itemset antecedent;
      for (size_t i = 0; i < k; ++i) {
        if (!(mask & (1u << i))) antecedent.push_back(f.items[i]);
      }
      double confidence = static_cast<double>(f.support) /
                          static_cast<double>(support.at(antecedent));
      if (confidence >= config.min_confidence) ++brute_count;
    }
  }
  EXPECT_EQ(rules->size(), brute_count);
}

TEST(AssociationRulesTest, MaxConsequentSizeRespected) {
  std::vector<FrequentItemset> frequent = {
      {{0}, 10}, {{1}, 10}, {{2}, 10},      {{0, 1}, 9},
      {{0, 2}, 9}, {{1, 2}, 9}, {{0, 1, 2}, 9},
  };
  RuleConfig config;
  config.min_confidence = 0.0;
  config.max_consequent_size = 1;
  StatusOr<std::vector<AssociationRule>> rules =
      GenerateRules(frequent, 10, config);
  ASSERT_TRUE(rules.ok());
  for (const AssociationRule& rule : *rules) {
    EXPECT_EQ(rule.consequent.size(), 1u);
  }
}

TEST(AssociationRulesTest, RejectsBadConfidence) {
  RuleConfig config;
  config.min_confidence = 1.5;
  EXPECT_EQ(GenerateRules(TinyFrequent(), 8, config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AssociationRulesTest, RejectsNanConfidence) {
  // NaN passes a plain `< 0 || > 1` range check and would keep every rule.
  RuleConfig config;
  config.min_confidence = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(GenerateRules(TinyFrequent(), 8, config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AssociationRulesTest, RejectsZeroTransactions) {
  RuleConfig config;
  EXPECT_EQ(GenerateRules(TinyFrequent(), 0, config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AssociationRulesTest, RejectsNonClosedInput) {
  // {0,1} frequent but {0} missing: not a valid mining result.
  std::vector<FrequentItemset> broken = {{{1}, 6}, {{0, 1}, 5}};
  RuleConfig config;
  config.min_confidence = 0.0;
  EXPECT_EQ(GenerateRules(broken, 8, config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AssociationRulesTest, SingletonsOnlyYieldNoRules) {
  std::vector<FrequentItemset> frequent = {{{0}, 5}, {{1}, 4}};
  RuleConfig config;
  config.min_confidence = 0.0;
  StatusOr<std::vector<AssociationRule>> rules =
      GenerateRules(frequent, 8, config);
  ASSERT_TRUE(rules.ok());
  EXPECT_TRUE(rules->empty());
}

}  // namespace
}  // namespace ossm

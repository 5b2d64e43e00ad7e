#include "mining/hash_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "datagen/quest_generator.h"
#include "mining/itemset.h"
#include "parallel/thread_pool.h"

namespace ossm {
namespace {

// Counts every transaction through `tree` into one fresh state.
std::vector<uint64_t> CountAll(const HashTree& tree,
                               const std::vector<Itemset>& transactions) {
  HashTree::CountingState state = tree.MakeCountingState();
  for (const Itemset& txn : transactions) tree.CountTransaction(txn, &state);
  return state.counts;
}

TEST(HashTreeTest, CountsSimplePairs) {
  std::vector<Itemset> candidates = {{0, 1}, {1, 2}, {0, 2}};
  HashTree tree(candidates);
  std::vector<uint64_t> counts = CountAll(tree, {{0, 1, 2}, {0, 1}, {2}});
  EXPECT_EQ(counts[0], 2u);  // {0,1}
  EXPECT_EQ(counts[1], 1u);  // {1,2}
  EXPECT_EQ(counts[2], 1u);  // {0,2}
}

TEST(HashTreeTest, EmptyCandidateSet) {
  HashTree tree(std::span<const Itemset>{});
  std::vector<uint64_t> counts = CountAll(tree, {{1, 2, 3}});  // no crash
  EXPECT_TRUE(counts.empty());
}

TEST(HashTreeTest, ShortTransactionsAreSkipped) {
  std::vector<Itemset> candidates = {{0, 1, 2}};
  HashTree tree(candidates);
  EXPECT_EQ(CountAll(tree, {{0, 1}})[0], 0u);
}

TEST(HashTreeTest, NoDoubleCountingWithTinyFanout) {
  // A fanout of 2 forces many items into the same hash path, the regime
  // where a leaf can be visited several times per transaction.
  std::vector<Itemset> candidates;
  for (ItemId a = 0; a < 8; ++a) {
    for (ItemId b = a + 1; b < 8; ++b) {
      candidates.push_back({a, b});
    }
  }
  HashTree tree(candidates, /*fanout=*/2, /*leaf_capacity=*/2);
  std::vector<uint64_t> counts = CountAll(tree, {{0, 1, 2, 3, 4, 5, 6, 7}});
  for (size_t c = 0; c < candidates.size(); ++c) {
    EXPECT_EQ(counts[c], 1u) << "candidate " << c;
  }
}

TEST(HashTreeTest, MatchedListAgreesWithCounts) {
  std::vector<Itemset> candidates = {{0, 1}, {2, 3}, {1, 3}};
  HashTree tree(candidates);
  HashTree::CountingState state = tree.MakeCountingState();
  Itemset txn = {0, 1, 3};
  std::vector<uint32_t> matched;
  tree.CountTransaction(txn, &state, &matched);
  std::sort(matched.begin(), matched.end());
  EXPECT_EQ(matched, (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(state.counts, (std::vector<uint64_t>{1, 0, 1}));
}

TEST(HashTreeTest, AgreesWithBruteForceOnRandomData) {
  QuestConfig config;
  config.num_items = 25;
  config.num_transactions = 400;
  config.avg_transaction_size = 6;
  config.num_patterns = 8;
  config.seed = 13;
  StatusOr<TransactionDatabase> db = GenerateQuest(config);
  ASSERT_TRUE(db.ok());

  // Candidate triples drawn at random.
  Rng rng(17);
  std::vector<Itemset> candidates;
  for (int c = 0; c < 200; ++c) {
    Itemset items;
    while (items.size() < 3) {
      ItemId item = static_cast<ItemId>(rng.UniformInt(25));
      if (std::find(items.begin(), items.end(), item) == items.end()) {
        items.push_back(item);
      }
    }
    std::sort(items.begin(), items.end());
    candidates.push_back(items);
  }
  std::sort(candidates.begin(), candidates.end(), ItemsetLess);
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  for (uint32_t fanout : {2u, 4u, 8u}) {
    for (uint32_t capacity : {1u, 4u, 64u}) {
      HashTree tree(candidates, fanout, capacity);
      HashTree::CountingState state = tree.MakeCountingState();
      for (uint64_t t = 0; t < db->num_transactions(); ++t) {
        tree.CountTransaction(db->transaction(t), &state);
      }
      for (size_t c = 0; c < candidates.size(); ++c) {
        uint64_t expected = 0;
        for (uint64_t t = 0; t < db->num_transactions(); ++t) {
          if (db->Contains(t, candidates[c])) ++expected;
        }
        ASSERT_EQ(state.counts[c], expected)
            << "fanout " << fanout << " capacity " << capacity
            << " candidate " << c;
      }
    }
  }
}

TEST(HashTreeTest, SingletonCandidates) {
  std::vector<Itemset> candidates = {{2}, {5}};
  HashTree tree(candidates);
  std::vector<uint64_t> counts = CountAll(tree, {{2, 5}, {5}});
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
}

TEST(HashTreeTest, DeepSplitAtCandidateSizeKeepsGrowing) {
  // Many candidates sharing a full hash path: the leaf at depth k cannot
  // split further and must grow past the capacity without recursing
  // forever.
  std::vector<Itemset> candidates;
  for (ItemId last = 0; last < 40; ++last) {
    candidates.push_back({0, 8, 16 + last * 8});  // all hash to bucket 0
  }
  HashTree tree(candidates, /*fanout=*/8, /*leaf_capacity=*/2);
  Itemset txn;
  for (ItemId i = 0; i < 400; ++i) txn.push_back(i);
  std::vector<uint64_t> counts = CountAll(tree, {txn});
  for (size_t c = 0; c < candidates.size(); ++c) {
    EXPECT_EQ(counts[c], 1u);
  }
}

// Sizes 1-3 in one call, in size runs plus a trailing run of pairs (two
// trees of one size), against containment counts; the visitor must see
// every transaction exactly once with exactly its contained ids.
TEST(HashTreeTest, CountCandidatesMatchesBruteForceAtAnyThreadCount) {
  QuestConfig config;
  config.num_items = 20;
  config.num_transactions = 300;
  config.avg_transaction_size = 5;
  config.num_patterns = 6;
  config.seed = 29;
  StatusOr<TransactionDatabase> generated = GenerateQuest(config);
  ASSERT_TRUE(generated.ok());
  TransactionDatabase empty_db(config.num_items);

  Rng rng(31);
  std::vector<Itemset> candidates;
  for (size_t size : {1u, 2u, 3u, 2u}) {
    for (int c = 0; c < 40; ++c) {
      Itemset items;
      while (items.size() < size) {
        ItemId item = static_cast<ItemId>(rng.UniformInt(config.num_items));
        if (std::find(items.begin(), items.end(), item) == items.end()) {
          items.push_back(item);
        }
      }
      std::sort(items.begin(), items.end());
      candidates.push_back(items);
    }
  }

  for (const TransactionDatabase* db : {&*generated, &empty_db}) {
    for (size_t num_candidates : {candidates.size(), size_t{0}}) {
      std::span<const Itemset> counted(candidates.data(), num_candidates);
      for (uint32_t threads : {1u, 2u, 8u}) {
        parallel::SetDefaultThreadCount(threads);
        SCOPED_TRACE(testing::Message()
                     << "threads " << threads << " transactions "
                     << db->num_transactions() << " candidates "
                     << num_candidates);
        std::vector<std::vector<uint32_t>> seen(db->num_transactions());
        std::vector<int> visits(db->num_transactions(), 0);
        std::vector<uint64_t> counts = CountCandidates(
            *db, counted,
            [&](uint32_t shard, uint64_t t,
                std::span<const uint32_t> matched) {
              EXPECT_LT(shard, threads);
              ++visits[t];
              seen[t].assign(matched.begin(), matched.end());
            });
        ASSERT_EQ(counts.size(), num_candidates);
        for (size_t c = 0; c < num_candidates; ++c) {
          uint64_t expected = 0;
          for (uint64_t t = 0; t < db->num_transactions(); ++t) {
            if (db->Contains(t, counted[c])) ++expected;
          }
          EXPECT_EQ(counts[c], expected) << "candidate " << c;
        }
        EXPECT_EQ(counts, CountCandidates(*db, counted));  // no visitor
        for (uint64_t t = 0; t < db->num_transactions(); ++t) {
          EXPECT_EQ(visits[t], 1) << "transaction " << t;
          std::vector<uint32_t> expected;
          for (uint32_t c = 0; c < num_candidates; ++c) {
            if (db->Contains(t, counted[c])) expected.push_back(c);
          }
          std::sort(seen[t].begin(), seen[t].end());
          EXPECT_EQ(seen[t], expected) << "transaction " << t;
        }
      }
    }
  }
  parallel::SetDefaultThreadCount(parallel::DefaultThreadCount());
}

}  // namespace
}  // namespace ossm

#include "serve/support_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"

namespace ossm {
namespace serve {
namespace {

Itemset Items(std::initializer_list<ItemId> items) { return Itemset(items); }

TEST(SupportCacheTest, InsertThenLookupRoundTrips) {
  SupportCache cache(16, 4);
  cache.Insert(Items({1, 2, 3}), 42);
  uint64_t support = 0;
  EXPECT_TRUE(cache.Lookup(Items({1, 2, 3}), &support));
  EXPECT_EQ(support, 42u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SupportCacheTest, MissLeavesOutputUntouched) {
  SupportCache cache(16, 4);
  uint64_t support = 7;
  EXPECT_FALSE(cache.Lookup(Items({9}), &support));
  EXPECT_EQ(support, 7u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(SupportCacheTest, InsertRefreshesExistingEntry) {
  SupportCache cache(16, 1);
  cache.Insert(Items({5}), 10);
  cache.Insert(Items({5}), 11);
  uint64_t support = 0;
  EXPECT_TRUE(cache.Lookup(Items({5}), &support));
  EXPECT_EQ(support, 11u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SupportCacheTest, EvictsLeastRecentlyUsedPerShard) {
  SupportCache cache(3, 1);  // one shard, room for three
  cache.Insert(Items({1}), 1);
  cache.Insert(Items({2}), 2);
  cache.Insert(Items({3}), 3);
  // Touch {1} so {2} becomes the LRU victim.
  uint64_t support = 0;
  ASSERT_TRUE(cache.Lookup(Items({1}), &support));
  cache.Insert(Items({4}), 4);
  EXPECT_FALSE(cache.Lookup(Items({2}), &support));
  EXPECT_TRUE(cache.Lookup(Items({1}), &support));
  EXPECT_TRUE(cache.Lookup(Items({3}), &support));
  EXPECT_TRUE(cache.Lookup(Items({4}), &support));
  EXPECT_EQ(cache.size(), 3u);
}

TEST(SupportCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  SupportCache cache(64, 3);
  EXPECT_EQ(cache.num_shards(), 4u);
  SupportCache one(64, 0);
  EXPECT_EQ(one.num_shards(), 1u);
}

TEST(SupportCacheTest, ShardCountClampedByCapacity) {
  SupportCache cache(2, 16);  // cannot give 16 shards a slot each
  EXPECT_LE(cache.num_shards(), 2u);
  cache.Insert(Items({1}), 1);
  cache.Insert(Items({2}), 2);
  uint64_t support = 0;
  EXPECT_TRUE(cache.Lookup(Items({1}), &support) ||
              cache.Lookup(Items({2}), &support));
}

TEST(SupportCacheTest, ClearDropsEverything) {
  SupportCache cache(16, 4);
  for (ItemId i = 0; i < 10; ++i) cache.Insert(Items({i}), i);
  EXPECT_GT(cache.size(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  uint64_t support = 0;
  EXPECT_FALSE(cache.Lookup(Items({3}), &support));
}

TEST(SupportCacheTest, PrefixItemsetsDoNotAlias) {
  // {1} vs {1,2} vs {1,2,3}: hashing must distinguish lengths.
  SupportCache cache(16, 1);
  cache.Insert(Items({1}), 100);
  cache.Insert(Items({1, 2}), 200);
  cache.Insert(Items({1, 2, 3}), 300);
  uint64_t support = 0;
  ASSERT_TRUE(cache.Lookup(Items({1}), &support));
  EXPECT_EQ(support, 100u);
  ASSERT_TRUE(cache.Lookup(Items({1, 2}), &support));
  EXPECT_EQ(support, 200u);
  ASSERT_TRUE(cache.Lookup(Items({1, 2, 3}), &support));
  EXPECT_EQ(support, 300u);
}

TEST(SupportCacheTest, ManyDistinctItemsetsAllRetrievable) {
  // One shard so nothing can evict below the total capacity: this test is
  // about hash-collision resolution, not shard balance.
  SupportCache cache(1024, 1);
  for (ItemId i = 0; i < 500; ++i) {
    cache.Insert(Items({i, static_cast<ItemId>(i + 1000)}), i * 3);
  }
  for (ItemId i = 0; i < 500; ++i) {
    uint64_t support = 0;
    ASSERT_TRUE(cache.Lookup(Items({i, static_cast<ItemId>(i + 1000)}),
                             &support))
        << "itemset " << i;
    EXPECT_EQ(support, i * 3u);
  }
}

// Hammer the cache from several threads; correctness here is "TSan-clean
// and every hit returns the value some Insert wrote for that key".
TEST(SupportCacheTest, ConcurrentMixedTrafficIsSafe) {
  SupportCache cache(256, 4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (uint32_t round = 0; round < 2000; ++round) {
        ItemId a = (round * 7 + static_cast<uint32_t>(t)) % 64;
        Itemset key = {a, a + 64};
        cache.Insert(key, a);
        uint64_t support = 0;
        if (cache.Lookup(key, &support)) {
          ASSERT_EQ(support, a);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(cache.hits() + cache.misses(), 4u * 2000u);
}

// The textbook exact LRU the cache must behave as: per shard, a list with
// the most recent entry at the front, the same hash picking the shard, and
// the same split of the capacity across shards.
class ReferenceLru {
 public:
  ReferenceLru(uint64_t capacity, uint32_t num_shards)
      : shards_(num_shards), capacity_(num_shards) {
    for (uint32_t s = 0; s < num_shards; ++s) {
      capacity_[s] = capacity / num_shards + (s < capacity % num_shards);
    }
  }

  bool Lookup(const Itemset& itemset, uint64_t* support) {
    List& lru = ShardFor(itemset);
    auto it = Find(lru, itemset);
    if (it == lru.end()) {
      ++misses_;
      return false;
    }
    lru.splice(lru.begin(), lru, it);
    *support = it->second;
    ++hits_;
    return true;
  }

  void Insert(const Itemset& itemset, uint64_t support) {
    const size_t shard = ShardIndex(itemset);
    List& lru = shards_[shard];
    auto it = Find(lru, itemset);
    if (it != lru.end()) {
      it->second = support;
      lru.splice(lru.begin(), lru, it);
      return;
    }
    if (lru.size() == capacity_[shard]) lru.pop_back();
    lru.emplace_front(itemset, support);
  }

  void Clear() {
    for (List& lru : shards_) lru.clear();
  }

  uint64_t size() const {
    uint64_t total = 0;
    for (const List& lru : shards_) total += lru.size();
    return total;
  }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  using List = std::list<std::pair<Itemset, uint64_t>>;

  size_t ShardIndex(const Itemset& itemset) const {
    return HashItemset(itemset) & (shards_.size() - 1);
  }
  List& ShardFor(const Itemset& itemset) {
    return shards_[ShardIndex(itemset)];
  }
  static List::iterator Find(List& lru, const Itemset& itemset) {
    return std::find_if(lru.begin(), lru.end(), [&](const auto& entry) {
      return entry.first == itemset;
    });
  }

  std::vector<List> shards_;
  std::vector<uint64_t> capacity_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// Drives the cache and the reference side by side with a seeded mix of
// inserts, lookups and the odd Clear over a small itemset universe (so
// keys recur, hit, refresh and get evicted), checking every observable
// after every operation.
TEST(SupportCacheTest, MatchesReferenceLruOnRandomTraffic) {
  Rng rng(20260);
  for (uint64_t capacity = 1; capacity <= 64; ++capacity) {
    for (uint32_t shards = 1; shards <= 4; ++shards) {
      SupportCache cache(capacity, shards);
      ReferenceLru reference(capacity, cache.num_shards());
      const std::string where = "capacity=" + std::to_string(capacity) +
                                " shards=" + std::to_string(shards);
      for (int op = 0; op < 600; ++op) {
        Itemset itemset;
        const uint64_t size = 1 + rng.UniformInt(3);
        while (itemset.size() < size) {
          ItemId item = static_cast<ItemId>(rng.UniformInt(10));
          if (std::find(itemset.begin(), itemset.end(), item) ==
              itemset.end()) {
            itemset.push_back(item);
          }
        }
        std::sort(itemset.begin(), itemset.end());
        const uint64_t roll = rng.UniformInt(100);
        if (roll < 45) {
          const uint64_t support = rng.UniformInt(1000);
          cache.Insert(itemset, support);
          reference.Insert(itemset, support);
        } else if (roll < 99) {
          uint64_t got = 7777;
          uint64_t want = 7777;
          const bool hit = cache.Lookup(itemset, &got);
          ASSERT_EQ(hit, reference.Lookup(itemset, &want))
              << where << " op " << op;
          ASSERT_EQ(got, want) << where << " op " << op;
        } else {
          cache.Clear();
          reference.Clear();
        }
        ASSERT_EQ(cache.size(), reference.size()) << where << " op " << op;
        ASSERT_EQ(cache.hits(), reference.hits()) << where << " op " << op;
        ASSERT_EQ(cache.misses(), reference.misses())
            << where << " op " << op;
      }
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace ossm

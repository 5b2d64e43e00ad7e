#ifndef OSSM_SERVE_SUPPORT_CACHE_H_
#define OSSM_SERVE_SUPPORT_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "data/item.h"

namespace ossm {
namespace serve {

// A sharded LRU map from canonical (sorted, duplicate-free) itemsets to
// their exact supports — the middle tier of the serving path. Repeated
// queries for the same itemset are a fact of life in online serving (the
// head of the query distribution is short), and a hit here turns a full
// CSR scan into a hash probe.
//
// Sharding: an itemset hashes to one of `num_shards` independent LRU
// structures, each behind its own mutex, so concurrent front-end threads
// do not serialize on one lock. Capacity is split evenly across shards and
// eviction is per shard; the worst-case resident count is therefore
// `capacity`, reached only when the hash spreads perfectly.
//
// Each shard is flat: one entry array, linked into its LRU list by 32-bit
// indices, and an open-addressed index that stays at most half full. Both
// grow with residency, never to the budget up front. A full shard evicts
// by reusing its least-recently-used entry, item vector included, so a
// warm cache answers and inserts without allocating.
class SupportCache {
 public:
  // `capacity` is the total entry budget (>= 1); `num_shards` is rounded up
  // to a power of two and clamped to [1, capacity]. One shard holds at most
  // 2^31 entries, whatever its share of `capacity`.
  SupportCache(uint64_t capacity, uint32_t num_shards);

  SupportCache(const SupportCache&) = delete;
  SupportCache& operator=(const SupportCache&) = delete;

  // Looks `itemset` up; on a hit refreshes its recency and writes the
  // support through `*support`.
  bool Lookup(std::span<const ItemId> itemset, uint64_t* support);

  // Inserts (or refreshes) an itemset's support, evicting the shard's
  // least-recently-used entry when the shard is full.
  void Insert(std::span<const ItemId> itemset, uint64_t support);

  // Drops every entry (all shards). Used when the serving snapshot changes.
  void Clear();

  uint64_t size() const;      // resident entries, summed over shards
  uint64_t capacity() const { return capacity_; }
  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }

  // Monotonic hit/miss tallies, kept here (not in the metrics registry) so
  // the serving stats endpoint works even with OSSM_METRICS unset.
  uint64_t hits() const;
  uint64_t misses() const;

 private:
  static constexpr uint32_t kNone = ~0u;

  struct Entry {
    std::vector<ItemId> items;
    uint64_t support = 0;
    uint32_t tag = 0;        // high half of the itemset's hash
    uint32_t newer = kNone;  // LRU neighbours, as indices into `entries`
    uint32_t older = kNone;
  };
  struct Shard {
    std::mutex mu;
    std::vector<Entry> entries;
    uint32_t newest = kNone;  // LRU head
    uint32_t oldest = kNone;  // LRU tail: the next victim
    // Linear probing over words `tag << 32 | (entry + 1)`; 0 is an empty
    // slot. A power of two in size, at least twice the resident count.
    std::vector<uint64_t> index;
    uint64_t capacity = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;

    // The entry holding `itemset`, or kNone.
    uint32_t Find(std::span<const ItemId> itemset, uint32_t tag) const;
    void MoveToFront(uint32_t entry);
    void Unlink(uint32_t entry);
    void PushFront(uint32_t entry);
    void IndexErase(uint32_t entry);
    void GrowIndex();
  };

  Shard& ShardFor(uint64_t hash) {
    return *shards_[hash & shard_mask_];
  }

  uint64_t capacity_;
  uint64_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// FNV-1a over the itemset's bytes; shared with the engine's batch dedup.
uint64_t HashItemset(std::span<const ItemId> itemset);

}  // namespace serve
}  // namespace ossm

#endif  // OSSM_SERVE_SUPPORT_CACHE_H_

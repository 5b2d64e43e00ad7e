#include "serve/support_cache.h"

#include <algorithm>

#include "common/logging.h"

namespace ossm {
namespace serve {

namespace {

// Entry indices are 32-bit with 0 reserved for an empty index slot, and
// the index probes from 32-bit tags, so a shard's index must stay within
// 2^32 slots: at most half full, that is 2^31 entries.
constexpr uint64_t kMaxShardEntries = uint64_t{1} << 31;
constexpr size_t kMinIndexSlots = 8;

uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

uint32_t TagOf(uint64_t hash) { return static_cast<uint32_t>(hash >> 32); }

// The shard is chosen by the hash's low bits and the index slot by the
// tag's: FNV-1a ends in a multiply, so its high half is the better mixed.
size_t HomeSlot(uint64_t word, size_t mask) { return (word >> 32) & mask; }

// Puts `word` in the first empty slot of its probe run.
void Place(std::vector<uint64_t>& index, uint64_t word) {
  const size_t mask = index.size() - 1;
  size_t slot = HomeSlot(word, mask);
  while (index[slot] != 0) slot = (slot + 1) & mask;
  index[slot] = word;
}

bool SameItems(std::span<const ItemId> a, const std::vector<ItemId>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace

uint64_t HashItemset(std::span<const ItemId> itemset) {
  uint64_t hash = 14695981039346656037ULL;
  for (ItemId item : itemset) {
    for (int shift = 0; shift < 32; shift += 8) {
      hash ^= (item >> shift) & 0xFF;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

uint32_t SupportCache::Shard::Find(std::span<const ItemId> itemset,
                                   uint32_t tag) const {
  if (index.empty()) return kNone;
  const size_t mask = index.size() - 1;
  // Terminates: the index is never more than half full.
  for (size_t slot = tag & mask;; slot = (slot + 1) & mask) {
    const uint64_t word = index[slot];
    if (word == 0) return kNone;
    if (TagOf(word) == tag) {
      const uint32_t entry = static_cast<uint32_t>(word) - 1;
      if (SameItems(itemset, entries[entry].items)) return entry;
    }
  }
}

void SupportCache::Shard::MoveToFront(uint32_t entry) {
  if (newest == entry) return;
  Unlink(entry);
  PushFront(entry);
}

void SupportCache::Shard::Unlink(uint32_t entry) {
  const Entry& e = entries[entry];
  if (e.newer != kNone) {
    entries[e.newer].older = e.older;
  } else {
    newest = e.older;
  }
  if (e.older != kNone) {
    entries[e.older].newer = e.newer;
  } else {
    oldest = e.newer;
  }
}

void SupportCache::Shard::PushFront(uint32_t entry) {
  Entry& e = entries[entry];
  e.newer = kNone;
  e.older = newest;
  if (newest != kNone) {
    entries[newest].newer = entry;
  } else {
    oldest = entry;
  }
  newest = entry;
}

void SupportCache::Shard::IndexErase(uint32_t entry) {
  const size_t mask = index.size() - 1;
  size_t hole = entries[entry].tag & mask;
  while (static_cast<uint32_t>(index[hole]) != entry + 1) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: pull later words of the probe run into the
  // hole when their home slot lies at or before it, so no tombstones are
  // needed and every remaining word stays reachable from its home.
  for (size_t next = (hole + 1) & mask; index[next] != 0;
       next = (next + 1) & mask) {
    const size_t home = HomeSlot(index[next], mask);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index[hole] = index[next];
      hole = next;
    }
  }
  index[hole] = 0;
}

void SupportCache::Shard::GrowIndex() {
  std::vector<uint64_t> old = std::move(index);
  index.assign(std::max(kMinIndexSlots, 2 * old.size()), 0);
  for (uint64_t word : old) {
    if (word != 0) Place(index, word);
  }
}

SupportCache::SupportCache(uint64_t capacity, uint32_t num_shards) {
  capacity_ = std::max<uint64_t>(capacity, 1);
  uint32_t shards = RoundUpPow2(std::max<uint32_t>(num_shards, 1));
  while (shards > 1 && shards > capacity_) shards >>= 1;
  shard_mask_ = shards - 1;
  shards_.reserve(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    // Distribute the budget so the shard capacities sum to capacity_.
    shards_.back()->capacity = std::min(
        capacity_ / shards + (s < capacity_ % shards), kMaxShardEntries);
  }
}

bool SupportCache::Lookup(std::span<const ItemId> itemset, uint64_t* support) {
  OSSM_DCHECK(support != nullptr);
  uint64_t hash = HashItemset(itemset);
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  const uint32_t entry = shard.Find(itemset, TagOf(hash));
  if (entry == kNone) {
    ++shard.misses;
    return false;
  }
  shard.MoveToFront(entry);
  *support = shard.entries[entry].support;
  ++shard.hits;
  return true;
}

void SupportCache::Insert(std::span<const ItemId> itemset, uint64_t support) {
  uint64_t hash = HashItemset(itemset);
  const uint32_t tag = TagOf(hash);
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  uint32_t entry = shard.Find(itemset, tag);
  if (entry != kNone) {
    shard.entries[entry].support = support;
    shard.MoveToFront(entry);
    return;
  }
  if (shard.entries.size() < shard.capacity) {
    if (2 * (shard.entries.size() + 1) > shard.index.size()) {
      shard.GrowIndex();
    }
    entry = static_cast<uint32_t>(shard.entries.size());
    shard.entries.push_back(
        Entry{std::vector<ItemId>(itemset.begin(), itemset.end()), support,
              tag});
    shard.PushFront(entry);
  } else {
    // Full: the least-recently-used entry takes the new itemset in place.
    entry = shard.oldest;
    shard.IndexErase(entry);
    Entry& victim = shard.entries[entry];
    victim.items.assign(itemset.begin(), itemset.end());
    victim.support = support;
    victim.tag = tag;
    shard.MoveToFront(entry);
  }
  Place(shard.index, (uint64_t{tag} << 32) | (entry + 1));
}

void SupportCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->entries.clear();
    std::fill(shard->index.begin(), shard->index.end(), 0);
    shard->newest = kNone;
    shard->oldest = kNone;
  }
}

uint64_t SupportCache::size() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->entries.size();
  }
  return total;
}

uint64_t SupportCache::hits() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->hits;
  }
  return total;
}

uint64_t SupportCache::misses() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->misses;
  }
  return total;
}

}  // namespace serve
}  // namespace ossm

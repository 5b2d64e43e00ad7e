#ifndef OSSM_DATA_BITMAP_INDEX_H_
#define OSSM_DATA_BITMAP_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>

#include "common/aligned.h"
#include "common/logging.h"
#include "data/item.h"
#include "data/transaction_database.h"
#include "storage/pager.h"

namespace ossm {

// Vertical bitmap index over a TransactionDatabase: one bitmap per item,
// bit t set iff transaction t contains the item. The dense complement of
// Eclat's sorted tid-lists — exact containment counting becomes AND +
// popcount over word runs instead of per-transaction merges, which is what
// the kernel layer (kernels::AndPopcount / AndCount) vectorizes.
//
// Layout: row-major, words_per_row() 64-bit words per item, each row
// 64-byte aligned (words_per_row is rounded up to a multiple of 8 words).
// Bit t of row i lives at words[i * words_per_row + t/64], bit t%64. Tail
// bits past num_transactions are zero, so popcounts never need masking.
//
// Density economics (the adaptive rule call sites use): a row costs
// num_transactions/8 bytes regardless of support, while a tid-list costs
// 8 bytes per supporting transaction — the bitmap wins on memory once
// support exceeds num_transactions/64, and an AND over two rows touches
// num_transactions/32 bytes against the merge's 8*(|a|+|b|). Built on
// demand from the CSR store in one pass; the database is immutable, so the
// index never goes stale.
//
// Under OSSM_STORAGE=mmap the rows live in a kBitmapRows segment of a
// mapped store instead of the heap (identical word layout, so every count
// is bit-identical); readers go through the same row() view either way.
class BitmapIndex {
 public:
  // An empty index (0 items); assign from Build.
  BitmapIndex() = default;

  BitmapIndex(const BitmapIndex& other);
  BitmapIndex& operator=(const BitmapIndex& other);
  BitmapIndex(BitmapIndex&& other) noexcept;
  BitmapIndex& operator=(BitmapIndex&& other) noexcept;

  // One CSR pass: O(total_item_occurrences + num_items * words_per_row).
  // Heap- or store-backed per storage::ActiveBackend(); a store-creation
  // failure falls back to the heap (the index is a cache, not a source of
  // truth).
  static BitmapIndex Build(const TransactionDatabase& db);

  // Index memory for a hypothetical database of this shape, without
  // building anything (the auto-mode heuristic and `ossm_cli info`).
  static uint64_t FootprintBytesFor(uint32_t num_items,
                                    uint64_t num_transactions);

  uint32_t num_items() const { return num_items_; }
  uint64_t num_transactions() const { return num_transactions_; }
  uint32_t words_per_row() const { return words_per_row_; }
  uint64_t FootprintBytes() const { return num_words_ * sizeof(uint64_t); }
  // Non-null when the rows live in a mapped store.
  const std::shared_ptr<storage::Pager>& store() const { return store_; }

  // Item i's bitmap as a word run.
  std::span<const uint64_t> row(ItemId item) const {
    OSSM_DCHECK(item < num_items_);
    return std::span<const uint64_t>(
        words_view_ + static_cast<size_t>(item) * words_per_row_,
        words_per_row_);
  }

  // Exact support of the (non-empty, strictly increasing) itemset: popcount
  // of the AND of its rows. `scratch` holds the running intersection for
  // itemsets of three or more items (resized as needed; pass a per-thread
  // buffer to avoid reallocation in hot loops).
  uint64_t Support(std::span<const ItemId> itemset,
                   AlignedVector<uint64_t>* scratch) const;

 private:
  void RepointToHeap();

  uint32_t num_items_ = 0;
  uint64_t num_transactions_ = 0;
  uint32_t words_per_row_ = 0;
  uint64_t num_words_ = 0;
  // Heap backing (empty when store-backed).
  AlignedVector<uint64_t> words_;
  // Read view over heap or mapped rows.
  const uint64_t* words_view_ = nullptr;
  // Keep-alive for the mapped backing; null for heap indexes.
  std::shared_ptr<storage::Pager> store_;
};

}  // namespace ossm

#endif  // OSSM_DATA_BITMAP_INDEX_H_

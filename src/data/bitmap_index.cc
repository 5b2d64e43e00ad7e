#include "data/bitmap_index.h"

#include <algorithm>
#include <utility>

#include "kernels/kernels.h"
#include "storage/storage_env.h"

namespace ossm {

namespace {

// Rows padded to a 64-byte (8-word) multiple so each row is cache-line
// aligned given the 64-byte base alignment of the backing vector (pager
// segments are page-aligned, which subsumes it).
constexpr uint32_t kRowWordAlign = 8;

uint64_t WordsPerRow(uint64_t num_transactions) {
  uint64_t words = (num_transactions + 63) / 64;
  return (words + kRowWordAlign - 1) / kRowWordAlign * kRowWordAlign;
}

}  // namespace

uint64_t BitmapIndex::FootprintBytesFor(uint32_t num_items,
                                        uint64_t num_transactions) {
  return num_items * WordsPerRow(num_transactions) * sizeof(uint64_t);
}

void BitmapIndex::RepointToHeap() { words_view_ = words_.data(); }

BitmapIndex::BitmapIndex(const BitmapIndex& other)
    : num_items_(other.num_items_),
      num_transactions_(other.num_transactions_),
      words_per_row_(other.words_per_row_),
      num_words_(other.num_words_),
      words_(other.words_),
      words_view_(other.words_view_),
      store_(other.store_) {
  // Mapped copies share the (immutable) rows; heap copies re-point at
  // their own vector.
  if (store_ == nullptr) RepointToHeap();
}

BitmapIndex& BitmapIndex::operator=(const BitmapIndex& other) {
  if (this != &other) {
    *this = BitmapIndex(other);
  }
  return *this;
}

BitmapIndex::BitmapIndex(BitmapIndex&& other) noexcept
    : num_items_(other.num_items_),
      num_transactions_(other.num_transactions_),
      words_per_row_(other.words_per_row_),
      num_words_(other.num_words_),
      words_(std::move(other.words_)),
      words_view_(other.words_view_),
      store_(std::move(other.store_)) {
  if (store_ == nullptr) RepointToHeap();
}

BitmapIndex& BitmapIndex::operator=(BitmapIndex&& other) noexcept {
  if (this != &other) {
    num_items_ = other.num_items_;
    num_transactions_ = other.num_transactions_;
    words_per_row_ = other.words_per_row_;
    num_words_ = other.num_words_;
    words_ = std::move(other.words_);
    words_view_ = other.words_view_;
    store_ = std::move(other.store_);
    if (store_ == nullptr) RepointToHeap();
  }
  return *this;
}

BitmapIndex BitmapIndex::Build(const TransactionDatabase& db) {
  BitmapIndex index;
  index.num_items_ = db.num_items();
  index.num_transactions_ = db.num_transactions();
  index.words_per_row_ = static_cast<uint32_t>(
      WordsPerRow(index.num_transactions_));
  index.num_words_ =
      static_cast<uint64_t>(index.num_items_) * index.words_per_row_;

  uint64_t* out = nullptr;
  if (storage::ActiveBackend() == storage::Backend::kMmap) {
    storage::Pager::Options store_options;
    store_options.delete_on_close = true;  // rebuildable cache
    auto pager =
        storage::Pager::Create(storage::NewStorePath("bitmap"), store_options);
    if (pager.ok()) {
      auto rows = pager.value()->AllocateSegment(
          storage::SegmentKind::kBitmapRows,
          std::max<uint64_t>(index.num_words_ * sizeof(uint64_t), 1));
      if (rows.ok()) {
        index.store_ = std::move(pager).value();
        index.store_->SetSegmentAux(rows.value(), 0, index.num_items_);
        index.store_->SetSegmentAux(rows.value(), 1,
                                    index.num_transactions_);
        out = reinterpret_cast<uint64_t*>(
            index.store_->SegmentData(rows.value()));
        index.words_view_ = out;
      }
    }
    // On any failure fall through to the heap: the index is a cache and
    // the mmap backend only changes where bytes live, never the answer.
  }
  if (out == nullptr) {
    index.words_.assign(static_cast<size_t>(index.num_words_), 0);
    index.RepointToHeap();
    out = index.words_.data();
  }

  for (uint64_t t = 0; t < index.num_transactions_; ++t) {
    uint64_t word = t >> 6;
    uint64_t bit = uint64_t{1} << (t & 63);
    for (ItemId item : db.transaction(t)) {
      out[static_cast<size_t>(item) * index.words_per_row_ + word] |= bit;
    }
  }
  return index;
}

uint64_t BitmapIndex::Support(std::span<const ItemId> itemset,
                              AlignedVector<uint64_t>* scratch) const {
  OSSM_DCHECK(!itemset.empty());
  size_t n = words_per_row_;
  if (itemset.size() == 1) {
    return kernels::PopcountU64(row(itemset[0]).data(), n);
  }
  if (itemset.size() == 2) {
    return kernels::AndPopcount(row(itemset[0]).data(),
                                row(itemset[1]).data(), n);
  }
  // k >= 3: AND the first k-1 rows into the scratch run, fusing the final
  // row with the popcount.
  scratch->resize(n);
  kernels::AndCount(row(itemset[0]).data(), row(itemset[1]).data(),
                    scratch->data(), n);
  for (size_t k = 2; k + 1 < itemset.size(); ++k) {
    kernels::AndCount(scratch->data(), row(itemset[k]).data(),
                      scratch->data(), n);
  }
  return kernels::AndPopcount(scratch->data(), row(itemset.back()).data(),
                              n);
}

}  // namespace ossm

#ifndef OSSM_CORE_OSSUB_H_
#define OSSM_CORE_OSSUB_H_

#include <cstdint>
#include <span>

#include "core/segment.h"
#include "data/item.h"

namespace ossm {

// The loss-of-accuracy quantity of equation (2), Section 5.1. For a set A of
// segments, ossub(A) sums, over all pairs of items {x, y}, the gap between
// the pair's upper bound after merging A into one segment and its upper
// bound with A kept apart:
//
//   ossub(A) = sum_{x<y} [ sup_hat({x,y}, SSM_1(A)) - sup_hat({x,y}, SSM_k(A)) ]
//
// Lemma 2: ossub is zero iff all segments share a configuration, is strictly
// positive otherwise, and is monotone under taking supersets of A.
//
// Closed form. For a count vector v let
//
//   S(v) = sum_{x<y} min(v_x, v_y) = sum_i v_(i) * (n - 1 - i),
//
// where v_(0) <= ... <= v_(n-1) are the n summed counts sorted ascending:
// each count is the minimum of its pairs with every later one. The merged
// bound sums the pair minima of the summed counts, the kept bound those of
// each segment, so
//
//   ossub(A) = S(sum of A) - sum_{s in A} S(s).
//
// One evaluation is a gather and a sort: O(m log m), not the pair loop's
// O(m^2). The identity holds over the integers and so mod 2^64: results are
// bit-identical to the pair loop for every uint64_t input, wrapped merged
// counts included.
//
// If `bubble` is non-empty, the summation is restricted to pairs of items in
// the bubble list (Section 5.3), which cuts the cost to
// O(|bubble| log |bubble|). Pairs are taken over list positions, exactly
// as a pair loop over the list would: the list's order does not matter,
// and an item listed twice counts its pairs with the other items twice
// (its pair with itself adds zero).

// S(counts) over the bubble items (every item if `bubble` is empty).
uint64_t PairMinSum(std::span<const uint64_t> counts,
                    std::span<const ItemId> bubble = {});

// Pairwise ossub between two segments — the quantity Greedy, RC and the
// updater's closest fit minimize. Three sorts.
uint64_t PairwiseOssub(std::span<const uint64_t> a,
                       std::span<const uint64_t> b,
                       std::span<const ItemId> bubble = {});

// Pairwise ossub for callers that keep each segment's S: `a_pair_mins` and
// `b_pair_mins` must be PairMinSum(a, bubble) and PairMinSum(b, bubble).
// One sort, of the merged counts.
uint64_t PairwiseOssub(std::span<const uint64_t> a, uint64_t a_pair_mins,
                       std::span<const uint64_t> b, uint64_t b_pair_mins,
                       std::span<const ItemId> bubble = {});

// A per-item count vector viewed through a stride: element i lives at
// base[i * stride]. This is the shape of one segment's column inside the
// item-major SegmentSupportMap, so map consumers (OssmUpdater's closest-fit
// scan) can evaluate losses against segments in place instead of copying
// every column out first.
struct StridedCounts {
  const uint64_t* base = nullptr;
  size_t stride = 1;
  size_t size = 0;

  uint64_t operator[](size_t i) const { return base[i * stride]; }
};

// Pairwise ossub where the first operand is a strided column. `a.size` must
// equal b.size().
uint64_t PairwiseOssub(const StridedCounts& a, std::span<const uint64_t> b,
                       std::span<const ItemId> bubble = {});

inline uint64_t PairwiseOssub(const Segment& a, const Segment& b,
                              std::span<const ItemId> bubble = {}) {
  return PairwiseOssub(std::span<const uint64_t>(a.counts),
                       std::span<const uint64_t>(b.counts), bubble);
}

// General form over k >= 2 segments (used by tests and the theory module;
// the heuristics only ever need the pairwise form).
uint64_t Ossub(std::span<const Segment> segments,
               std::span<const ItemId> bubble = {});

}  // namespace ossm

#endif  // OSSM_CORE_OSSUB_H_

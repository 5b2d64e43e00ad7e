#include "core/ossub.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"

namespace ossm {

namespace {

// S over value(item) for the summed items: gathered into a per-thread row,
// sorted, and each value weighted by the number of values after it.
template <typename Value>
uint64_t GatherPairMinSum(size_t m, std::span<const ItemId> bubble,
                          const Value& value) {
  thread_local std::vector<uint64_t> row;
  if (bubble.empty()) {
    row.resize(m);
    for (size_t i = 0; i < m; ++i) row[i] = value(i);
  } else {
    row.resize(bubble.size());
    for (size_t j = 0; j < bubble.size(); ++j) row[j] = value(bubble[j]);
  }
  std::sort(row.begin(), row.end());
  uint64_t total = 0;
  uint64_t later = row.size();
  for (uint64_t v : row) total += v * --later;
  return total;
}

}  // namespace

uint64_t PairMinSum(std::span<const uint64_t> counts,
                    std::span<const ItemId> bubble) {
  return GatherPairMinSum(counts.size(), bubble,
                          [&](size_t i) { return counts[i]; });
}

uint64_t PairwiseOssub(std::span<const uint64_t> a,
                       std::span<const uint64_t> b,
                       std::span<const ItemId> bubble) {
  return PairwiseOssub(a, PairMinSum(a, bubble), b, PairMinSum(b, bubble),
                       bubble);
}

uint64_t PairwiseOssub(std::span<const uint64_t> a, uint64_t a_pair_mins,
                       std::span<const uint64_t> b, uint64_t b_pair_mins,
                       std::span<const ItemId> bubble) {
  OSSM_CHECK_EQ(a.size(), b.size());
  uint64_t merged = GatherPairMinSum(
      a.size(), bubble, [&](size_t i) { return a[i] + b[i]; });
  return merged - a_pair_mins - b_pair_mins;
}

uint64_t PairwiseOssub(const StridedCounts& a, std::span<const uint64_t> b,
                       std::span<const ItemId> bubble) {
  OSSM_CHECK_EQ(a.size, b.size());
  uint64_t merged = GatherPairMinSum(
      a.size, bubble, [&](size_t i) { return a[i] + b[i]; });
  uint64_t a_pair_mins =
      GatherPairMinSum(a.size, bubble, [&](size_t i) { return a[i]; });
  return merged - a_pair_mins - PairMinSum(b, bubble);
}

uint64_t Ossub(std::span<const Segment> segments,
               std::span<const ItemId> bubble) {
  OSSM_CHECK_GE(segments.size(), 2u);
  size_t m = segments[0].counts.size();
  std::vector<uint64_t> merged(m, 0);
  uint64_t kept = 0;
  for (const Segment& seg : segments) {
    OSSM_CHECK_EQ(seg.counts.size(), m);
    for (size_t i = 0; i < m; ++i) merged[i] += seg.counts[i];
    kept += PairMinSum(seg.counts, bubble);
  }
  return PairMinSum(merged, bubble) - kept;
}

}  // namespace ossm

#include "mining/mining_result.h"

#include <algorithm>
#include <cmath>

#include "mining/itemset.h"

namespace ossm {

StatusOr<uint64_t> MinSupportCount(double fraction, uint64_t count,
                                   uint64_t n) {
  if (count > 0) return count;
  // Negated so that NaN, which compares false with everything, fails too.
  if (!(fraction > 0.0 && fraction <= 1.0)) {
    return Status::InvalidArgument(
        "min_support_fraction must be in (0, 1] when no absolute count is "
        "given");
  }
  return std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(fraction * static_cast<double>(n))));
}

uint64_t MiningStats::TotalCandidatesGenerated() const {
  uint64_t total = 0;
  for (const LevelStats& l : levels) total += l.candidates_generated;
  return total;
}

uint64_t MiningStats::TotalCandidatesCounted() const {
  uint64_t total = 0;
  for (const LevelStats& l : levels) total += l.candidates_counted;
  return total;
}

uint64_t MiningStats::TotalPrunedByBound() const {
  uint64_t total = 0;
  for (const LevelStats& l : levels) total += l.pruned_by_bound;
  return total;
}

uint64_t MiningStats::TotalAbandonedJoins() const {
  uint64_t total = 0;
  for (const LevelStats& l : levels) total += l.abandoned_joins;
  return total;
}

uint64_t MiningStats::TotalEliminatedByOssm() const {
  uint64_t total = 0;
  for (const LevelStats& l : levels) total += l.eliminated_by_ossm;
  return total;
}

uint64_t MiningStats::TotalEliminatedByNdi() const {
  uint64_t total = 0;
  for (const LevelStats& l : levels) total += l.eliminated_by_ndi;
  return total;
}

uint64_t MiningStats::TotalDerivedWithoutCounting() const {
  uint64_t total = 0;
  for (const LevelStats& l : levels) total += l.derived_without_counting;
  return total;
}

uint64_t MiningStats::CountedAtLevel(uint32_t level) const {
  for (const LevelStats& l : levels) {
    if (l.level == level) return l.candidates_counted;
  }
  return 0;
}

uint64_t MiningStats::GeneratedAtLevel(uint32_t level) const {
  for (const LevelStats& l : levels) {
    if (l.level == level) return l.candidates_generated;
  }
  return 0;
}

void MiningResult::Canonicalize() {
  std::sort(itemsets.begin(), itemsets.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              return ItemsetLess(a.items, b.items);
            });
}

bool MiningResult::SamePatternsAs(const MiningResult& other) const {
  return itemsets == other.itemsets;
}

}  // namespace ossm

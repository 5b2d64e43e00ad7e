#ifndef OSSM_MINING_MINING_RESULT_H_
#define OSSM_MINING_MINING_RESULT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "data/item.h"

namespace ossm {

// The absolute support threshold on a database of `n` transactions: `count`
// when non-zero, else max(1, ceil(fraction * n)). With no count, a fraction
// outside (0, 1] — NaN included — is InvalidArgument. Every miner and
// `ossm_cli serve` take their threshold from here.
StatusOr<uint64_t> MinSupportCount(double fraction, uint64_t count,
                                   uint64_t n);

// A frequent itemset with its exact support.
struct FrequentItemset {
  Itemset items;
  uint64_t support = 0;

  friend bool operator==(const FrequentItemset& a,
                         const FrequentItemset& b) = default;
};

// Per-level accounting a candidate-generation miner reports. The ratio
// counted/generated at level 2 is exactly the y-axis of Figure 4(b).
struct LevelStats {
  uint32_t level = 0;
  uint64_t candidates_generated = 0;  // after the join+prune step
  uint64_t pruned_by_bound = 0;       // discarded via any upper bound
  uint64_t pruned_by_hash = 0;        // discarded via DHP bucket counts
  uint64_t candidates_counted = 0;    // survivors that hit the counting pass
  uint64_t abandoned_joins = 0;       // counts cut short by early abandon
  uint64_t frequent = 0;
  // Attribution of pruned_by_bound between bound sources, plus candidates
  // whose support the deduction rules pinned exactly (lower == upper) so no
  // counting pass ever touched them. eliminated_by_ossm + eliminated_by_ndi
  // == pruned_by_bound for miners wired through EvaluateCandidate.
  uint64_t eliminated_by_ossm = 0;       // equation-(1) bound was decisive
  uint64_t eliminated_by_ndi = 0;        // deduction rule caught what OSSM missed
  uint64_t derived_without_counting = 0; // exact support deduced, scan skipped
};

struct MiningStats {
  std::vector<LevelStats> levels;
  double total_seconds = 0.0;
  uint64_t database_scans = 0;

  uint64_t TotalCandidatesGenerated() const;
  uint64_t TotalCandidatesCounted() const;
  uint64_t TotalPrunedByBound() const;
  uint64_t TotalAbandonedJoins() const;
  uint64_t TotalEliminatedByOssm() const;
  uint64_t TotalEliminatedByNdi() const;
  uint64_t TotalDerivedWithoutCounting() const;
  // Counted candidates at one level (0 if the miner never reached it).
  uint64_t CountedAtLevel(uint32_t level) const;
  uint64_t GeneratedAtLevel(uint32_t level) const;
};

// The outcome of a mining run. `itemsets` is sorted canonically (by size,
// then lexicographically) so results from different miners compare with ==.
struct MiningResult {
  std::vector<FrequentItemset> itemsets;
  MiningStats stats;

  // Sorts itemsets canonically. Every miner calls this before returning.
  void Canonicalize();

  // True iff both runs found exactly the same itemsets with the same
  // supports (stats are not compared).
  bool SamePatternsAs(const MiningResult& other) const;
};

}  // namespace ossm

#endif  // OSSM_MINING_MINING_RESULT_H_

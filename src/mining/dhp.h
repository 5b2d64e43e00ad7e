#ifndef OSSM_MINING_DHP_H_
#define OSSM_MINING_DHP_H_

#include <cstdint>

#include "common/status.h"
#include "data/transaction_database.h"
#include "mining/candidate_pruner.h"
#include "mining/mining_result.h"

namespace ossm {

// The DHP algorithm (Park, Chen, Yu — reference [15] of the paper): during
// the level-1 scan, all 2-subsets of each transaction are hashed into a
// bucket table; a pair of frequent items becomes a candidate 2-itemset only
// if its bucket total reaches the threshold. Transactions are also trimmed
// while counting: an item survives into the next level's working database
// only if it occurred in at least k candidate k-itemsets of the transaction.
//
// Section 7 of the OSSM paper runs DHP with and without an OSSM: the OSSM's
// equation-(1) bound prunes pairs *before* the bucket filter sees them, and
// the two filters compose (a candidate must pass both). The experiment's
// headline: with a Random-RC OSSM of 40 segments and 32768 buckets, |C2|
// roughly halves and the runtime with it.
struct DhpConfig {
  double min_support_fraction = 0.01;
  uint64_t min_support_count = 0;  // wins when non-zero
  uint32_t num_buckets = 32768;
  uint32_t max_level = 0;          // 0 = unlimited

  // Optional OSSM pruning, composed with the hash filter. Not owned.
  const CandidatePruner* pruner = nullptr;
};

// Mines all frequent itemsets. Produces exactly the same patterns as
// Apriori on the same database and threshold (both filters are lossless).
// LevelStats::pruned_by_hash records the bucket filter's effect and
// pruned_by_bound the OSSM's.
StatusOr<MiningResult> MineDhp(const TransactionDatabase& db,
                               const DhpConfig& config);

}  // namespace ossm

#endif  // OSSM_MINING_DHP_H_

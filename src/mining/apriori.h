#ifndef OSSM_MINING_APRIORI_H_
#define OSSM_MINING_APRIORI_H_

#include <cstdint>

#include "common/status.h"
#include "data/transaction_database.h"
#include "mining/candidate_pruner.h"
#include "mining/mining_result.h"

namespace ossm {

// Configuration of the Apriori miner. The support threshold is either a
// fraction of the number of transactions (the paper quotes percentages) or
// an absolute count; the absolute count wins when non-zero.
struct AprioriConfig {
  double min_support_fraction = 0.01;
  uint64_t min_support_count = 0;

  // Stop after this level (0 = run until no candidates survive).
  uint32_t max_level = 0;

  // Optional support-bounding structure (e.g. OssmPruner). Not owned; may be
  // null. When it supplies exact singleton supports, the level-1 database
  // scan is skipped.
  const CandidatePruner* pruner = nullptr;
};

// Classic Apriori (Agrawal-Srikant): level-wise candidate generation
// (join + subset prune) and one counting scan per level (CountCandidates).
// With a pruner installed, every generated candidate is first tested
// against the equation-(1) bound; candidates whose bound is below the
// threshold never reach the counting pass. Pruning is lossless: the mined
// patterns are identical with and without a pruner.
StatusOr<MiningResult> MineApriori(const TransactionDatabase& db,
                                   const AprioriConfig& config);

}  // namespace ossm

#endif  // OSSM_MINING_APRIORI_H_

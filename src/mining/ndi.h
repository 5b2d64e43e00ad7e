#ifndef OSSM_MINING_NDI_H_
#define OSSM_MINING_NDI_H_

#include <cstdint>

#include "common/status.h"
#include "data/transaction_database.h"
#include "mining/candidate_pruner.h"
#include "mining/mining_result.h"

namespace ossm {

// Configuration of the non-derivable-itemset miner.
struct NdiConfig {
  double min_support_fraction = 0.01;
  uint64_t min_support_count = 0;  // wins when non-zero

  // Stop after this level (0 = run until no candidates survive).
  uint32_t max_level = 0;

  // Deduction-rule depth limit (|I\J| <= max_depth; 0 = unlimited). The
  // unlimited default mines the exact NDI representation; a limit trades
  // rule-evaluation time for a (still complete, still lossless) superset
  // of the representation — shallower rules detect fewer derivable sets.
  uint32_t max_depth = 0;

  // Optional equation-(1) bound (e.g. OssmPruner) fused with the deduction
  // rules: candidates whose OSSM upper bound is below threshold are dropped
  // before any rule is evaluated or any counting happens. Not owned; may be
  // null. When it supplies exact singleton supports, the level-1 scan is
  // skipped.
  const CandidatePruner* pruner = nullptr;
};

// Calders & Goethals' NDI algorithm: mines the condensed representation of
// the frequent itemsets consisting of the frequent *non-derivable* sets —
// those whose deduction-rule interval does not collapse to a point. The
// representation is lossless: the support of every frequent itemset outside
// it is reconstructible by re-running the (full-depth) deduction rules
// bottom-up from the representation's supports.
//
// Level-wise like Apriori, with three extra prunes, all exact:
//  - a candidate whose rule interval has upper < min_support is infrequent
//    (never counted);
//  - a candidate whose interval is a point is derivable (never counted,
//    not emitted — its support is already implied);
//  - a counted set whose support lands exactly on its lower or upper bound
//    is emitted but never extended: all its strict supersets are provably
//    derivable (Calders & Goethals, Theorem 3.1), at any rule depth.
//
// Stats: pruned_by_bound counts the infrequent-by-bound candidates (split
// into eliminated_by_ossm / eliminated_by_ndi by which bound was decisive),
// derived_without_counting the derivable candidates skipped, frequent the
// representation's sets per level.
StatusOr<MiningResult> MineNdi(const TransactionDatabase& db,
                               const NdiConfig& config);

}  // namespace ossm

#endif  // OSSM_MINING_NDI_H_

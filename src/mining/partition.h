#ifndef OSSM_MINING_PARTITION_H_
#define OSSM_MINING_PARTITION_H_

#include <cstdint>

#include "common/status.h"
#include "data/transaction_database.h"
#include "mining/mining_result.h"

namespace ossm {

// The Partition algorithm (Savasere, Omiecinski, Navathe — reference [17]):
// split the database into partitions that each fit in memory, mine each
// partition for locally frequent itemsets at the scaled-down local
// threshold, take the union of the local results as the global candidate
// set (any globally frequent itemset is locally frequent somewhere), and
// make one final counting pass to find the globally frequent ones.
//
// Section 7 of the OSSM paper describes two ways the OSSM helps here, both
// implemented behind `use_ossm`:
//  1. a per-partition OSSM prunes local candidates inside each local
//     Apriori run;
//  2. the concatenation of the per-partition OSSMs is a global OSSM, whose
//     equation-(1) bound prunes global candidates that are locally frequent
//     somewhere but globally hopeless, shrinking the final counting pass.
struct PartitionConfig {
  double min_support_fraction = 0.01;
  uint32_t num_partitions = 4;
  uint32_t max_level = 0;  // 0 = unlimited

  // Enables both OSSM assists described above.
  bool use_ossm = false;
  uint64_t ossm_segments_per_partition = 10;
  uint64_t transactions_per_page = 100;
};

// Extra accounting specific to Partition, carried in the MiningResult's
// generic stats plus these fields.
struct PartitionRunInfo {
  uint64_t global_candidates = 0;
  uint64_t global_candidates_pruned_by_ossm = 0;
};

StatusOr<MiningResult> MinePartition(const TransactionDatabase& db,
                                     const PartitionConfig& config,
                                     PartitionRunInfo* info = nullptr);

}  // namespace ossm

#endif  // OSSM_MINING_PARTITION_H_

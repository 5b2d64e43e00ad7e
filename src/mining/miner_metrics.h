#ifndef OSSM_MINING_MINER_METRICS_H_
#define OSSM_MINING_MINER_METRICS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/timer.h"
#include "mining/mining_result.h"

namespace ossm {

struct PruneOutcome;

// Per-run accounting recorder shared by every miner. Miners report events
// through it instead of twiddling LevelStats structs by hand; Finish()
// folds the run into the MiningResult's stats (keeping the established
// MiningStats API for benches and tests) and, when OSSM_METRICS is active,
// publishes the same numbers to the process-wide metrics registry as
//
//   <miner>.level<K>.candidates_generated / pruned_by_bound /
//   pruned_by_hash / candidates_counted / abandoned_joins / frequent
//   <miner>.database_scans, <miner>.runs, <miner>.patterns
//   span-histogram <miner>.total_us
//
// so any binary — bench, example, test, CLI — exports uniform counters
// with no signature churn. Recording methods are plain vector updates; the
// registry is only touched once, inside Finish().
class MinerMetrics {
 public:
  explicit MinerMetrics(std::string_view miner);

  // Per-level accounting; `level` is 1-based, levels grow on demand.
  void CandidatesGenerated(uint32_t level, uint64_t n = 1) {
    Level(level).candidates_generated += n;
  }
  void PrunedByBound(uint32_t level, uint64_t n = 1) {
    Level(level).pruned_by_bound += n;
  }
  void PrunedByHash(uint32_t level, uint64_t n = 1) {
    Level(level).pruned_by_hash += n;
  }
  void CandidatesCounted(uint32_t level, uint64_t n = 1) {
    Level(level).candidates_counted += n;
  }
  void AbandonedJoin(uint32_t level, uint64_t n = 1) {
    Level(level).abandoned_joins += n;
  }
  void Frequent(uint32_t level, uint64_t n = 1) {
    Level(level).frequent += n;
  }
  void EliminatedByOssm(uint32_t level, uint64_t n = 1) {
    Level(level).eliminated_by_ossm += n;
  }
  void EliminatedByNdi(uint32_t level, uint64_t n = 1) {
    Level(level).eliminated_by_ndi += n;
  }
  void DerivedWithoutCounting(uint32_t level, uint64_t n = 1) {
    Level(level).derived_without_counting += n;
  }
  // A candidate the pruner did not admit: one pruned_by_bound, attributed
  // to the decisive bound (eliminated_by_ndi or eliminated_by_ossm).
  void Rejected(uint32_t level, const PruneOutcome& outcome);
  void DatabaseScan() { ++database_scans_; }
  // Bulk form for miners that fold in sub-runs (e.g. Partition's local
  // Apriori passes).
  void DatabaseScans(uint64_t n) { database_scans_ += n; }

  uint64_t FrequentAt(uint32_t level) {
    return Level(level).frequent;
  }

  // Folds another recorder's per-level tallies and scan count into this
  // one. Parallel miners record into per-shard recorders and merge them in
  // shard order at the barrier; since all tallies are sums, the merged
  // totals match a serial run for any shard count. `other` must never be
  // Finish()ed itself.
  void MergeFrom(const MinerMetrics& other);

  // Moves the accumulated accounting into `stats` and publishes it to the
  // global registry when metrics are enabled. Call exactly once, after the
  // run's last recording.
  void Finish(MiningStats* stats);

 private:
  LevelStats& Level(uint32_t level);

  std::string miner_;
  std::vector<LevelStats> levels_;
  uint64_t database_scans_ = 0;
  WallTimer timer_;
};

}  // namespace ossm

#endif  // OSSM_MINING_MINER_METRICS_H_

#include "mining/miner_metrics.h"

#include <cmath>

#include "mining/candidate_pruner.h"
#include "obs/obs.h"

namespace ossm {

MinerMetrics::MinerMetrics(std::string_view miner) : miner_(miner) {}

LevelStats& MinerMetrics::Level(uint32_t level) {
  while (levels_.size() < level) {
    LevelStats stats;
    stats.level = static_cast<uint32_t>(levels_.size() + 1);
    levels_.push_back(stats);
  }
  return levels_[level - 1];
}

void MinerMetrics::Rejected(uint32_t level, const PruneOutcome& outcome) {
  PrunedByBound(level);
  if (outcome.eliminated_by == BoundSource::kNdi) {
    EliminatedByNdi(level);
  } else {
    EliminatedByOssm(level);
  }
}

void MinerMetrics::MergeFrom(const MinerMetrics& other) {
  for (const LevelStats& level : other.levels_) {
    LevelStats& mine = Level(level.level);
    mine.candidates_generated += level.candidates_generated;
    mine.pruned_by_bound += level.pruned_by_bound;
    mine.pruned_by_hash += level.pruned_by_hash;
    mine.candidates_counted += level.candidates_counted;
    mine.abandoned_joins += level.abandoned_joins;
    mine.frequent += level.frequent;
    mine.eliminated_by_ossm += level.eliminated_by_ossm;
    mine.eliminated_by_ndi += level.eliminated_by_ndi;
    mine.derived_without_counting += level.derived_without_counting;
  }
  database_scans_ += other.database_scans_;
}

void MinerMetrics::Finish(MiningStats* stats) {
  stats->levels = std::move(levels_);
  stats->database_scans = database_scans_;

  if (!obs::MetricsEnabled()) return;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();

  uint64_t patterns = 0;
  for (const LevelStats& level : stats->levels) {
    std::string prefix = miner_;
    prefix += ".level";
    prefix += std::to_string(level.level);
    prefix += '.';
    registry.GetCounter(prefix + "candidates_generated")
        .Add(level.candidates_generated);
    registry.GetCounter(prefix + "pruned_by_bound")
        .Add(level.pruned_by_bound);
    registry.GetCounter(prefix + "pruned_by_hash")
        .Add(level.pruned_by_hash);
    registry.GetCounter(prefix + "candidates_counted")
        .Add(level.candidates_counted);
    registry.GetCounter(prefix + "abandoned_joins")
        .Add(level.abandoned_joins);
    registry.GetCounter(prefix + "frequent").Add(level.frequent);
    if (level.eliminated_by_ossm != 0) {
      registry.GetCounter(prefix + "eliminated_by_ossm")
          .Add(level.eliminated_by_ossm);
    }
    if (level.eliminated_by_ndi != 0) {
      registry.GetCounter(prefix + "eliminated_by_ndi")
          .Add(level.eliminated_by_ndi);
    }
    if (level.derived_without_counting != 0) {
      registry.GetCounter(prefix + "derived_without_counting")
          .Add(level.derived_without_counting);
    }
    patterns += level.frequent;
  }
  registry.GetCounter(miner_ + ".database_scans").Add(database_scans_);
  registry.GetCounter(miner_ + ".patterns").Add(patterns);
  registry.GetCounter(miner_ + ".runs").Add(1);
  registry.GetHistogram("span." + miner_ + ".total_us")
      .Record(static_cast<uint64_t>(
          std::llround(timer_.ElapsedSeconds() * 1e6)));
}

}  // namespace ossm

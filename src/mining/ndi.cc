#include "mining/ndi.h"

#include <algorithm>
#include <vector>

#include "common/timer.h"
#include "mining/deduction_rules.h"
#include "mining/hash_tree.h"
#include "mining/itemset.h"
#include "mining/miner_metrics.h"
#include "obs/obs.h"

namespace ossm {

StatusOr<MiningResult> MineNdi(const TransactionDatabase& db,
                               const NdiConfig& config) {
  StatusOr<uint64_t> threshold =
      MinSupportCount(config.min_support_fraction, config.min_support_count,
                      db.num_transactions());
  if (!threshold.ok()) return threshold.status();
  uint64_t min_support = *threshold;
  OSSM_TRACE_SPAN("ndi.mine");

  MiningResult result;
  {
    ScopedTimer timer(&result.stats.total_seconds);
    MinerMetrics metrics("ndi");

    DeductionRules rules(db.num_transactions(), config.max_depth);

    // --- Level 1 ---
    metrics.CandidatesGenerated(1, db.num_items());
    std::vector<uint64_t> item_supports;
    std::span<const uint64_t> exact =
        config.pruner != nullptr ? config.pruner->ExactSingletonSupports()
                                 : std::span<const uint64_t>();
    if (exact.size() == db.num_items()) {
      item_supports.assign(exact.begin(), exact.end());
    } else {
      item_supports = db.ComputeItemSupports();
      metrics.DatabaseScan();
      metrics.CandidatesCounted(1, db.num_items());
    }

    // Frequent singletons are non-derivable whenever the database is
    // non-trivial (their interval is [0, total]); a singleton of full
    // support sits on its upper bound, so its supersets are derivable and
    // it is not extended.
    std::vector<Itemset> extendable;  // canonically sorted
    for (ItemId item = 0; item < db.num_items(); ++item) {
      if (item_supports[item] < min_support) continue;
      Itemset single = {item};
      rules.Record(single, item_supports[item]);
      result.itemsets.push_back({single, item_supports[item]});
      metrics.Frequent(1);
      if (item_supports[item] < db.num_transactions()) {
        extendable.push_back(std::move(single));
      }
    }

    // --- Levels k >= 2 ---
    for (uint32_t level = 2;
         (config.max_level == 0 || level <= config.max_level) &&
         extendable.size() >= 2;
         ++level) {
      // Generation closure is over the *extendable* sets: a subset that is
      // infrequent, derivable, or exact-at-bound all force the candidate
      // out of the representation, so requiring every subset extendable is
      // exactly the right join universe.
      uint64_t cap =
          GeertsCandidateCap(extendable.size(), level - 1);
      if (cap == 0) break;
      std::vector<Itemset> candidates =
          GenerateLevelCandidates(extendable, cap);
      metrics.CandidatesGenerated(level, candidates.size());
      if (candidates.empty()) break;

      // Rule evaluation: drop infrequent-by-bound and derivable candidates
      // before the counting pass. Intervals are kept for the survivors —
      // the exact-at-bound check after counting reuses them.
      std::vector<Itemset> countable;
      std::vector<SupportInterval> intervals;
      countable.reserve(candidates.size());
      intervals.reserve(candidates.size());
      for (Itemset& candidate : candidates) {
        uint64_t ossm_upper =
            config.pruner != nullptr
                ? config.pruner->UpperBound(candidate)
                : UINT64_MAX;
        if (ossm_upper < min_support) {
          metrics.PrunedByBound(level);
          metrics.EliminatedByOssm(level);
          continue;
        }
        SupportInterval interval = rules.Bounds(candidate);
        if (interval.upper < min_support) {
          metrics.PrunedByBound(level);
          metrics.EliminatedByNdi(level);
          continue;
        }
        if (interval.Exact()) {
          // Derivable: implied by the representation, never counted, never
          // emitted, and (supersets being derivable too) never extended.
          metrics.DerivedWithoutCounting(level);
          continue;
        }
        countable.push_back(std::move(candidate));
        intervals.push_back(interval);
      }
      metrics.CandidatesCounted(level, countable.size());
      if (countable.empty()) break;

      std::vector<uint64_t> counts;
      {
        OSSM_TRACE_SPAN("ndi.count_pass");
        counts = CountCandidates(db, countable);
        metrics.DatabaseScan();
      }

      std::vector<Itemset> next_extendable;
      for (size_t c = 0; c < countable.size(); ++c) {
        uint64_t support = counts[c];
        if (support < min_support) continue;
        const Itemset& items = countable[c];
        rules.Record(items, support);
        result.itemsets.push_back({items, support});
        metrics.Frequent(level);
        // Support landing exactly on a bound makes every strict superset
        // derivable (at any rule depth), so such sets stay in the
        // representation but are not extended.
        if (support != intervals[c].lower &&
            support != intervals[c].upper) {
          next_extendable.push_back(items);
        }
      }
      extendable = std::move(next_extendable);
      std::sort(extendable.begin(), extendable.end(), ItemsetLess);
    }

    result.Canonicalize();
    metrics.Finish(&result.stats);
  }
  return result;
}

}  // namespace ossm

#include "mining/apriori.h"

#include <algorithm>

#include "common/timer.h"
#include "mining/deduction_rules.h"
#include "mining/hash_tree.h"
#include "mining/itemset.h"
#include "mining/miner_metrics.h"
#include "obs/obs.h"

namespace ossm {

StatusOr<MiningResult> MineApriori(const TransactionDatabase& db,
                                   const AprioriConfig& config) {
  StatusOr<uint64_t> threshold =
      MinSupportCount(config.min_support_fraction, config.min_support_count,
                      db.num_transactions());
  if (!threshold.ok()) return threshold.status();
  uint64_t min_support = *threshold;
  OSSM_TRACE_SPAN("apriori.mine");

  MiningResult result;
  {
    ScopedTimer timer(&result.stats.total_seconds);
    MinerMetrics metrics("apriori");

    // --- Level 1 ---
    metrics.CandidatesGenerated(1, db.num_items());
    std::vector<uint64_t> item_supports;
    std::span<const uint64_t> exact =
        config.pruner != nullptr ? config.pruner->ExactSingletonSupports()
                                 : std::span<const uint64_t>();
    if (exact.size() == db.num_items()) {
      // The OSSM already knows every singleton support: no scan needed.
      item_supports.assign(exact.begin(), exact.end());
    } else {
      item_supports = db.ComputeItemSupports();
      metrics.DatabaseScan();
      metrics.CandidatesCounted(1, db.num_items());
    }

    std::vector<Itemset> frequent;  // L_k, canonically sorted
    for (ItemId item = 0; item < db.num_items(); ++item) {
      if (item_supports[item] >= min_support) {
        result.itemsets.push_back({{item}, item_supports[item]});
        frequent.push_back({item});
        metrics.Frequent(1);
        if (config.pruner != nullptr) {
          config.pruner->ObserveSupport(frequent.back(),
                                        item_supports[item]);
        }
      }
    }

    // --- Levels k >= 2 ---
    for (uint32_t level = 2;
         (config.max_level == 0 || level <= config.max_level) &&
         frequent.size() >= 2;
         ++level) {
      // Kruskal-Katona cap on how many candidates the join can possibly
      // emit from |L_{k}| frequent sets: skip the join when zero, stop the
      // scan once the cap many exist (the emitted set is still complete).
      uint64_t cap =
          GeertsCandidateCap(frequent.size(), level - 1);
      if (cap == 0) break;
      std::vector<Itemset> candidates =
          GenerateLevelCandidates(frequent, cap);
      metrics.CandidatesGenerated(level, candidates.size());
      if (candidates.empty()) break;

      // Bound pruning before any counting work. An admitted candidate whose
      // interval is exact is *derived*: its support is already known (and
      // >= min_support, since admitted means upper >= threshold), so it
      // goes straight to the frequent set without ever being scanned.
      std::vector<FrequentItemset> derived;
      if (config.pruner != nullptr) {
        std::vector<Itemset> survivors;
        survivors.reserve(candidates.size());
        for (Itemset& candidate : candidates) {
          PruneOutcome outcome =
              config.pruner->Evaluate(candidate, min_support);
          if (!outcome.admitted) {
            metrics.Rejected(level, outcome);
          } else if (outcome.interval.Exact()) {
            metrics.DerivedWithoutCounting(level);
            derived.push_back(
                {std::move(candidate), outcome.interval.lower});
          } else {
            survivors.push_back(std::move(candidate));
          }
        }
        candidates = std::move(survivors);
      }
      metrics.CandidatesCounted(level, candidates.size());

      std::vector<Itemset> next_frequent;
      if (!candidates.empty()) {
        OSSM_TRACE_SPAN("apriori.count_pass");
        std::vector<uint64_t> counts = CountCandidates(db, candidates);
        metrics.DatabaseScan();

        for (size_t c = 0; c < candidates.size(); ++c) {
          if (counts[c] >= min_support) {
            result.itemsets.push_back({candidates[c], counts[c]});
            next_frequent.push_back(candidates[c]);
            metrics.Frequent(level);
            if (config.pruner != nullptr) {
              config.pruner->ObserveSupport(candidates[c], counts[c]);
            }
          }
        }
      }
      // Derived candidates join the frequent set alongside the counted
      // ones; observation makes their exact supports available to the next
      // level's deduction rules too.
      for (FrequentItemset& d : derived) {
        if (config.pruner != nullptr) {
          config.pruner->ObserveSupport(d.items, d.support);
        }
        next_frequent.push_back(d.items);
        metrics.Frequent(level);
        result.itemsets.push_back(std::move(d));
      }
      frequent = std::move(next_frequent);
      std::sort(frequent.begin(), frequent.end(), ItemsetLess);
    }

    result.Canonicalize();
    metrics.Finish(&result.stats);
  }
  return result;
}

}  // namespace ossm

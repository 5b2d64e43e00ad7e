#include "mining/dhp.h"

#include <algorithm>
#include <vector>

#include "common/timer.h"
#include "mining/deduction_rules.h"
#include "mining/hash_tree.h"
#include "mining/itemset.h"
#include "mining/miner_metrics.h"
#include "obs/obs.h"
#include "parallel/thread_pool.h"

namespace ossm {

namespace {

// Bucket hash over a sorted itemset. Any fixed function works; losslessness
// only needs determinism.
uint32_t BucketOf(std::span<const ItemId> items, uint32_t num_buckets) {
  uint64_t hash = 1469598103934665603ULL;
  for (ItemId item : items) {
    hash = hash * 131 + item;
  }
  return static_cast<uint32_t>(hash % num_buckets);
}

// Hashes all subsets of `txn` of size `k` into `buckets`, recursively.
void HashAllSubsets(std::span<const ItemId> txn, uint32_t k,
                    std::vector<ItemId>& scratch,
                    std::vector<uint64_t>& buckets, uint32_t num_buckets,
                    size_t start) {
  if (scratch.size() == k) {
    ++buckets[BucketOf(scratch, num_buckets)];
    return;
  }
  size_t needed = k - scratch.size();
  if (txn.size() < start + needed) return;
  for (size_t i = start; i + needed <= txn.size(); ++i) {
    scratch.push_back(txn[i]);
    HashAllSubsets(txn, k, scratch, buckets, num_buckets, i + 1);
    scratch.pop_back();
  }
}

}  // namespace

StatusOr<MiningResult> MineDhp(const TransactionDatabase& db,
                               const DhpConfig& config) {
  StatusOr<uint64_t> threshold =
      MinSupportCount(config.min_support_fraction, config.min_support_count,
                      db.num_transactions());
  if (!threshold.ok()) return threshold.status();
  uint64_t min_support = *threshold;
  if (config.num_buckets == 0) {
    return Status::InvalidArgument("num_buckets must be positive");
  }
  OSSM_TRACE_SPAN("dhp.mine");

  MiningResult result;
  {
    ScopedTimer timer(&result.stats.total_seconds);
    MinerMetrics metrics("dhp");

    // --- Pass 1: singleton counts + the H2 bucket table ---
    metrics.CandidatesGenerated(1, db.num_items());
    metrics.CandidatesCounted(1, db.num_items());
    std::vector<uint64_t> item_supports(db.num_items(), 0);
    std::vector<uint64_t> buckets(config.num_buckets, 0);
    {
      OSSM_TRACE_SPAN("dhp.pass1");
      // Sharded scan: per-shard support and bucket tallies, sum-merged at
      // the barrier — identical totals for any shard count.
      uint32_t shards = parallel::NumShards(0, db.num_transactions());
      std::vector<std::vector<uint64_t>> shard_supports(
          shards, std::vector<uint64_t>(db.num_items(), 0));
      std::vector<std::vector<uint64_t>> shard_buckets(
          shards, std::vector<uint64_t>(config.num_buckets, 0));
      parallel::ParallelFor(
          0, db.num_transactions(),
          [&](uint32_t shard, uint64_t begin, uint64_t end) {
            std::vector<uint64_t>& supports = shard_supports[shard];
            std::vector<uint64_t>& bucket_tally = shard_buckets[shard];
            std::vector<ItemId> scratch;
            for (uint64_t t = begin; t < end; ++t) {
              std::span<const ItemId> txn = db.transaction(t);
              for (ItemId item : txn) ++supports[item];
              scratch.clear();
              HashAllSubsets(txn, 2, scratch, bucket_tally,
                             config.num_buckets, 0);
            }
          });
      for (uint32_t s = 0; s < shards; ++s) {
        for (uint32_t i = 0; i < db.num_items(); ++i) {
          item_supports[i] += shard_supports[s][i];
        }
        for (uint32_t b = 0; b < config.num_buckets; ++b) {
          buckets[b] += shard_buckets[s][b];
        }
      }
      metrics.DatabaseScan();
    }

    std::vector<Itemset> frequent;
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

    // The working (possibly trimmed) database for counting passes.
    TransactionDatabase working = db;

    for (uint32_t level = 2;
         (config.max_level == 0 || level <= config.max_level) &&
         frequent.size() >= 2;
         ++level) {
      // Kruskal-Katona cap on the join's possible output; zero means no
      // (level+1)-set can have all subsets frequent, so stop.
      uint64_t cap =
          GeertsCandidateCap(frequent.size(), level - 1);
      if (cap == 0) break;
      std::vector<Itemset> candidates =
          GenerateLevelCandidates(frequent, cap);
      metrics.CandidatesGenerated(level, candidates.size());

      // Bound pruning first: known-infrequent candidates are never even
      // hashed (Section 7: "known infrequent k-itemsets are not generated
      // in the first place"), and *derived* candidates — admitted with an
      // exact interval — are frequent with known support, so they skip
      // hashing AND counting.
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

      // Bucket filter: the bucket total is an upper bound on the
      // candidate's support (trimming keeps it so — see below), hence
      // lossless.
      {
        std::vector<Itemset> survivors;
        survivors.reserve(candidates.size());
        for (Itemset& candidate : candidates) {
          if (buckets[BucketOf(candidate, config.num_buckets)] >=
              min_support) {
            survivors.push_back(std::move(candidate));
          } else {
            metrics.PrunedByHash(level);
          }
        }
        candidates = std::move(survivors);
      }
      metrics.CandidatesCounted(level, candidates.size());

      if (candidates.empty() && derived.empty()) break;

      std::vector<Itemset> next_frequent;
      if (candidates.empty()) {
        // Every admitted candidate at this level was derived: no counting
        // pass runs, so there is no matched-candidate information to trim
        // with and no (level+1)-subset tally. Keep the working database as
        // is and saturate the bucket table — a maxed-out bucket count is a
        // trivially sound upper bound, so the next level's filter simply
        // passes everything through.
        std::fill(buckets.begin(), buckets.end(), UINT64_MAX);
      } else {
        OSSM_TRACE_SPAN("dhp.count_pass");

        // Derived frequent level-itemsets are never counted, so their
        // occurrences are invisible to the matched-candidate lists the
        // trimmer sees. Credit every item with the number of derived sets
        // containing it — an over-count for transactions that lack those
        // sets, which only over-keeps items (classic DHP would trim harder;
        // supports are preserved either way).
        std::vector<uint32_t> derived_credit(db.num_items(), 0);
        for (const FrequentItemset& d : derived) {
          for (ItemId item : d.items) ++derived_credit[item];
        }

        // Per-shard trimming scratch and outputs: the trimmed transactions
        // and the next level's bucket table, built on the fly.
        struct TrimShard {
          TransactionDatabase trimmed;
          std::vector<uint64_t> buckets;
          std::vector<uint32_t> occurrence;
          std::vector<ItemId> kept;
          std::vector<ItemId> scratch;

          TrimShard(uint32_t num_items, uint32_t num_buckets)
              : trimmed(num_items),
                buckets(num_buckets, 0),
                occurrence(num_items, 0) {}
        };
        std::vector<TrimShard> trim_shards(
            parallel::NumShards(0, working.num_transactions()),
            TrimShard(db.num_items(), config.num_buckets));

        // DHP trimming: an item can only contribute to a frequent
        // (level+1)-itemset in this transaction if it occurs in at least
        // `level` frequent level-subsets (every (level+1)-itemset has
        // `level` level-subsets through each of its items, all frequent by
        // closure) — counted candidates via `matched`, derived ones via
        // the credit table. The transaction itself is iterated because an
        // item may earn its keep entirely from derived credit.
        auto trim_transaction = [&](uint32_t shard, uint64_t t,
                                    std::span<const uint32_t> matched) {
          TrimShard& out = trim_shards[shard];
          out.kept.clear();
          for (uint32_t candidate_id : matched) {
            for (ItemId item : candidates[candidate_id]) {
              ++out.occurrence[item];
            }
          }
          for (ItemId item : working.transaction(t)) {
            if (out.occurrence[item] + derived_credit[item] >= level) {
              out.kept.push_back(item);
            }
          }
          for (uint32_t candidate_id : matched) {
            for (ItemId item : candidates[candidate_id]) {
              out.occurrence[item] = 0;
            }
          }
          // `kept` inherits the transaction's sorted-unique order.
          if (out.kept.size() >= level + 1) {
            Status append = out.trimmed.Append(out.kept);
            OSSM_CHECK(append.ok()) << append.ToString();
            out.scratch.clear();
            HashAllSubsets(out.kept, level + 1, out.scratch, out.buckets,
                           config.num_buckets, 0);
          }
        };
        std::vector<uint64_t> counts =
            CountCandidates(working, candidates, trim_transaction);
        metrics.DatabaseScan();

        // Shards are contiguous transaction ranges, so concatenating their
        // trimmed databases in shard order reproduces the serial trimmed
        // database exactly; bucket tallies sum-merge.
        TransactionDatabase trimmed(db.num_items());
        std::vector<uint64_t> next_buckets(config.num_buckets, 0);
        for (const TrimShard& shard : trim_shards) {
          for (uint64_t t = 0; t < shard.trimmed.num_transactions(); ++t) {
            Status append = trimmed.Append(shard.trimmed.transaction(t));
            OSSM_CHECK(append.ok()) << append.ToString();
          }
          for (uint32_t b = 0; b < config.num_buckets; ++b) {
            next_buckets[b] += shard.buckets[b];
          }
        }

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

        working = std::move(trimmed);
        buckets = std::move(next_buckets);
      }

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

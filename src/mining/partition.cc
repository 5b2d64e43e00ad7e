#include "mining/partition.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/timer.h"
#include "core/ossm_builder.h"
#include "mining/apriori.h"
#include "mining/candidate_pruner.h"
#include "mining/hash_tree.h"
#include "mining/itemset.h"
#include "mining/miner_metrics.h"
#include "obs/obs.h"
#include "parallel/thread_pool.h"

namespace ossm {

namespace {

Status Validate(const PartitionConfig& config,
                const TransactionDatabase& db) {
  if (config.num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  if (config.num_partitions > db.num_transactions()) {
    return Status::InvalidArgument(
        "more partitions than transactions");
  }
  return Status::OK();
}

}  // namespace

StatusOr<MiningResult> MinePartition(const TransactionDatabase& db,
                                     const PartitionConfig& config,
                                     PartitionRunInfo* info) {
  uint64_t n = db.num_transactions();
  StatusOr<uint64_t> threshold =
      MinSupportCount(config.min_support_fraction, 0, n);
  if (!threshold.ok()) return threshold.status();
  OSSM_RETURN_IF_ERROR(Validate(config, db));
  uint64_t global_min_support = *threshold;
  OSSM_TRACE_SPAN("partition.mine");

  MiningResult result;
  {
    ScopedTimer timer(&result.stats.total_seconds);
    MinerMetrics metrics("partition");

    // Phase 1: mine each partition locally; accumulate the candidate union
    // and (optionally) the per-partition OSSMs, whose concatenation is a
    // global OSSM over the whole collection.
    std::unordered_map<Itemset, int, ItemsetHasher> global_candidates;
    std::vector<SegmentSupportMap> partition_maps;

    {
      OSSM_TRACE_SPAN("partition.local_mining");
      // Phase 1 shards by partition: every partition's local mine is
      // independent. Outputs land in per-partition slots and are folded in
      // partition order below, so candidate sets, maps, and counters match
      // a serial run for any thread count. Nested parallelism inside
      // MineApriori/BuildOssm degrades to serial on pool workers.
      struct PartitionLocal {
        Status status = Status::OK();
        std::vector<FrequentItemset> itemsets;
        SegmentSupportMap map;
        bool has_map = false;
        uint64_t scans = 0;
      };
      std::vector<PartitionLocal> locals(config.num_partitions);

      parallel::ParallelForEach(
          config.num_partitions, [&](uint64_t p) {
            PartitionLocal& out = locals[p];
            uint64_t begin = n * p / config.num_partitions;
            uint64_t end = n * (p + 1) / config.num_partitions;

            TransactionDatabase part(db.num_items());
            for (uint64_t t = begin; t < end; ++t) {
              Status append = part.Append(db.transaction(t));
              OSSM_CHECK(append.ok()) << append.ToString();
            }

            // The fraction applies per partition: an itemset globally
            // frequent must reach it in at least one partition.
            AprioriConfig local;
            local.min_support_fraction = config.min_support_fraction;
            local.max_level = config.max_level;

            OssmBuildResult build;
            OssmPruner local_pruner(&build.map);
            if (config.use_ossm) {
              OssmBuildOptions options;
              options.algorithm = SegmentationAlgorithm::kRandom;
              options.target_segments = config.ossm_segments_per_partition;
              options.transactions_per_page = std::min<uint64_t>(
                  config.transactions_per_page,
                  std::max<uint64_t>(1, part.num_transactions()));
              StatusOr<OssmBuildResult> built = BuildOssm(part, options);
              if (!built.ok()) {
                out.status = built.status();
                return;
              }
              build = std::move(*built);
              local_pruner = OssmPruner(&build.map);
              local.pruner = &local_pruner;
            }

            StatusOr<MiningResult> local_result = MineApriori(part, local);
            if (!local_result.ok()) {
              out.status = local_result.status();
              return;
            }
            if (config.use_ossm) {
              out.map = std::move(build.map);
              out.has_map = true;
            }
            out.itemsets = std::move(local_result->itemsets);
            out.scans = local_result->stats.database_scans;
          });

      for (PartitionLocal& local : locals) {
        if (!local.status.ok()) return local.status;
        for (FrequentItemset& itemset : local.itemsets) {
          global_candidates.emplace(std::move(itemset.items), 0);
        }
        if (local.has_map) partition_maps.push_back(std::move(local.map));
        metrics.DatabaseScans(local.scans);
      }
    }

    OSSM_COUNTER_ADD("partition.global_candidates",
                     global_candidates.size());
    if (info != nullptr) {
      info->global_candidates = global_candidates.size();
      info->global_candidates_pruned_by_ossm = 0;
    }

    // Optional global pruning: the per-partition OSSMs side by side form an
    // OSSM of the whole collection, so equation (1) applies globally.
    std::vector<Itemset> candidates;
    candidates.reserve(global_candidates.size());
    for (auto& [itemset, unused] : global_candidates) {
      candidates.push_back(itemset);
    }
    if (config.use_ossm && !partition_maps.empty()) {
      uint64_t pruned = 0;
      std::vector<Itemset> survivors;
      survivors.reserve(candidates.size());
      for (Itemset& candidate : candidates) {
        uint64_t bound = 0;
        for (const SegmentSupportMap& map : partition_maps) {
          bound += map.UpperBound(candidate);
        }
        uint32_t level = static_cast<uint32_t>(candidate.size());
        metrics.CandidatesGenerated(level);
        if (bound >= global_min_support) {
          metrics.CandidatesCounted(level);
          survivors.push_back(std::move(candidate));
        } else {
          metrics.PrunedByBound(level);
          ++pruned;
        }
      }
      candidates = std::move(survivors);
      OSSM_COUNTER_ADD("partition.global_pruned_by_bound", pruned);
      if (info != nullptr) {
        info->global_candidates_pruned_by_ossm = pruned;
      }
    } else {
      for (const Itemset& candidate : candidates) {
        uint32_t level = static_cast<uint32_t>(candidate.size());
        metrics.CandidatesGenerated(level);
        metrics.CandidatesCounted(level);
      }
    }

    // Phase 2: one counting pass over the whole database for all surviving
    // global candidates. Canonical order sorts by size first, so each size
    // is one run and gets one hash tree.
    {
      OSSM_TRACE_SPAN("partition.global_count");
      std::sort(candidates.begin(), candidates.end(), ItemsetLess);
      std::vector<uint64_t> counts = CountCandidates(db, candidates);
      metrics.DatabaseScan();

      for (size_t c = 0; c < candidates.size(); ++c) {
        if (counts[c] >= global_min_support) {
          result.itemsets.push_back({candidates[c], counts[c]});
          metrics.Frequent(static_cast<uint32_t>(candidates[c].size()));
        }
      }
    }

    result.Canonicalize();
    metrics.Finish(&result.stats);
  }
  return result;
}

}  // namespace ossm

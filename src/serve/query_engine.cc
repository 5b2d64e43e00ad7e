#include "serve/query_engine.h"

#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/timer.h"
#include "obs/obs.h"
#include "parallel/thread_pool.h"
#include "serve/telemetry.h"

namespace ossm {
namespace serve {

namespace {

// Hash/equality over *indices into the batch*, so deduplication never
// copies an itemset into a map key (the batch outlives the set).
struct BatchIndexHash {
  std::span<const Itemset> itemsets;
  size_t operator()(size_t i) const {
    return static_cast<size_t>(HashItemset(std::span<const ItemId>(
        itemsets[i].data(), itemsets[i].size())));
  }
};
struct BatchIndexEq {
  std::span<const Itemset> itemsets;
  bool operator()(size_t a, size_t b) const {
    return itemsets[a] == itemsets[b];
  }
};

}  // namespace

std::string_view QueryTierName(QueryTier tier) {
  switch (tier) {
    case QueryTier::kBoundReject: return "reject";
    case QueryTier::kSingleton: return "singleton";
    case QueryTier::kCacheHit: return "cache";
    case QueryTier::kExact: return "exact";
  }
  return "unknown";
}

BitmapFootprint AutoBitmapFootprint(const TransactionDatabase& db) {
  BitmapFootprint footprint;
  footprint.csr_bytes = db.total_item_occurrences() * sizeof(ItemId) +
                        (db.num_transactions() + 1) * sizeof(uint64_t);
  footprint.bitmap_bytes =
      BitmapIndex::FootprintBytesFor(db.num_items(), db.num_transactions());
  footprint.auto_uses_bitmaps =
      footprint.bitmap_bytes <= 4 * footprint.csr_bytes;
  return footprint;
}

QueryEngine::QueryEngine(const TransactionDatabase* db, SegmentSupportMap* map,
                         const QueryEngineConfig& config)
    : db_(db),
      map_(map),
      config_(config),
      cache_(config.cache_capacity, config.cache_shards) {
  OSSM_CHECK(db_ != nullptr);
  if (map_ != nullptr) {
    OSSM_CHECK_EQ(map_->num_items(), db_->num_items())
        << "OSSM item domain does not match the served database";
  }
  switch (config_.bitmap_mode) {
    case BitmapMode::kOn:
      use_bitmaps_ = true;
      break;
    case BitmapMode::kOff:
      use_bitmaps_ = false;
      break;
    case BitmapMode::kAuto:
      // The index itself is built lazily on the first exact count.
      use_bitmaps_ = AutoBitmapFootprint(*db_).auto_uses_bitmaps;
      break;
  }
}

Status QueryEngine::ValidateItemset(std::span<const ItemId> itemset) const {
  if (itemset.empty()) {
    return Status::InvalidArgument("empty itemset");
  }
  for (size_t i = 0; i < itemset.size(); ++i) {
    if (itemset[i] >= db_->num_items()) {
      return Status::InvalidArgument(
          "item " + std::to_string(itemset[i]) + " outside the domain [0, " +
          std::to_string(db_->num_items()) + ")");
    }
    if (i > 0 && itemset[i] <= itemset[i - 1]) {
      return Status::InvalidArgument(
          "itemset must be strictly increasing");
    }
  }
  return Status::OK();
}

bool QueryEngine::AnswerFromTiersOneTwo(std::span<const ItemId> itemset,
                                        QueryResult* result) {
  if (map_ != nullptr) {
    std::shared_lock<std::shared_mutex> lock(map_mu_);
    uint64_t bound = map_->UpperBound(itemset);
    if (bound < config_.min_support) {
      result->support = bound;
      result->tier = QueryTier::kBoundReject;
      result->frequent = false;
      bound_rejects_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    if (itemset.size() == 1) {
      result->support = map_->Support(itemset[0]);
      result->tier = QueryTier::kSingleton;
      result->frequent = result->support >= config_.min_support;
      singleton_hits_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  } else if (itemset.size() == 1) {
    // Map-free singleton fast path: the immutable database's own row
    // totals answer exactly, so the query never occupies the LRU cache or
    // pays for the exact tier. Computed once, on first demand.
    std::call_once(db_singletons_once_, [this] {
      db_item_supports_ = db_->ComputeItemSupports();
    });
    result->support = db_item_supports_[itemset[0]];
    result->tier = QueryTier::kSingleton;
    result->frequent = result->support >= config_.min_support;
    singleton_hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  uint64_t cached = 0;
  if (cache_.Lookup(itemset, &cached)) {
    result->support = cached;
    result->tier = QueryTier::kCacheHit;
    result->frequent = cached >= config_.min_support;
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

std::vector<uint64_t> QueryEngine::BitmapCounts(
    const std::vector<Itemset>& needed) {
  OSSM_TRACE_SPAN("serve.bitmap_scan");
  std::call_once(bitmap_once_, [this] { bitmap_ = BitmapIndex::Build(*db_); });
  // Fan per itemset: each answer is an index-addressed exact popcount, so
  // results are bit-identical for any OSSM_THREADS.
  std::vector<uint64_t> totals(needed.size(), 0);
  parallel::ParallelForEach(needed.size(), [&](uint64_t q) {
    thread_local AlignedVector<uint64_t> scratch;
    totals[q] = bitmap_.Support(
        std::span<const ItemId>(needed[q].data(), needed[q].size()),
        &scratch);
  });
  exact_counts_.fetch_add(needed.size(), std::memory_order_relaxed);
  bitmap_counts_.fetch_add(needed.size(), std::memory_order_relaxed);
  return totals;
}

std::vector<uint64_t> QueryEngine::ExactCounts(
    const std::vector<Itemset>& needed) {
  if (use_bitmaps_) return BitmapCounts(needed);
  OSSM_TRACE_SPAN("serve.exact_scan");
  const uint64_t n = db_->num_transactions();
  const uint32_t shards = parallel::NumShards(0, n);
  std::vector<std::vector<uint64_t>> per_shard(
      shards, std::vector<uint64_t>(needed.size(), 0));
  parallel::ParallelFor(
      0, n, [&](uint32_t shard, uint64_t begin, uint64_t end) {
        std::vector<uint64_t>& counts = per_shard[shard];
        for (uint64_t t = begin; t < end; ++t) {
          for (size_t q = 0; q < needed.size(); ++q) {
            if (db_->Contains(t, needed[q])) ++counts[q];
          }
        }
      });
  // Shard-order merge: sums of per-shard tallies are independent of the
  // thread count, so batch answers are bit-identical at any OSSM_THREADS.
  std::vector<uint64_t> totals(needed.size(), 0);
  for (uint32_t shard = 0; shard < shards; ++shard) {
    for (size_t q = 0; q < needed.size(); ++q) {
      totals[q] += per_shard[shard][q];
    }
  }
  exact_counts_.fetch_add(needed.size(), std::memory_order_relaxed);
  return totals;
}

StatusOr<QueryResult> QueryEngine::Query(std::span<const ItemId> itemset) {
  Itemset items(itemset.begin(), itemset.end());
  QueryResult result;
  StatusOr<bool> answered = TryAnswerWithoutScan(items, &result);
  if (!answered.ok()) return answered.status();
  if (*answered) return result;
  StatusOr<std::vector<QueryResult>> exact =
      QueryBatch(std::span<const Itemset>(&items, 1));
  if (!exact.ok()) return exact.status();
  return (*exact)[0];
}

StatusOr<bool> QueryEngine::TryAnswerWithoutScan(const Itemset& itemset,
                                                 QueryResult* result) {
  OSSM_RETURN_IF_ERROR(ValidateItemset(itemset));
  WallTimer timer;
  if (!AnswerFromTiersOneTwo(itemset, result)) return false;
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (ServeTelemetry* telemetry = config_.telemetry) {
    const uint64_t us = static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6);
    telemetry->RecordTierLatency(result->tier, us);
    // Answered where it arrived: no queue in front of it.
    telemetry->RecordRequest(itemset, *result, /*queue_wait_us=*/0, us);
  }
  return true;
}

StatusOr<std::vector<QueryResult>> QueryEngine::QueryBatch(
    std::span<const Itemset> itemsets) {
  return QueryBatch(itemsets, QueryBatchOptions{});
}

StatusOr<std::vector<QueryResult>> QueryEngine::QueryBatch(
    std::span<const Itemset> itemsets, const QueryBatchOptions& options) {
  OSSM_TRACE_SPAN("serve.query_batch");
  for (size_t i = 0; i < itemsets.size(); ++i) {
    Status status = ValidateItemset(itemsets[i]);
    if (!status.ok()) {
      return Status::InvalidArgument("itemset " + std::to_string(i) + ": " +
                                     status.message());
    }
  }
  queries_.fetch_add(itemsets.size(), std::memory_order_relaxed);

  // Dedup to first occurrence; every duplicate replays its twin's answer.
  std::vector<QueryResult> results(itemsets.size());
  std::unordered_set<size_t, BatchIndexHash, BatchIndexEq> first_of(
      itemsets.size(), BatchIndexHash{itemsets}, BatchIndexEq{itemsets});
  std::vector<size_t> alias(itemsets.size());
  std::vector<size_t> unique_order;
  for (size_t i = 0; i < itemsets.size(); ++i) {
    auto [it, inserted] = first_of.insert(i);
    alias[i] = *it;
    if (inserted) unique_order.push_back(i);
  }
  if (options.duplicates != nullptr) {
    *options.duplicates = itemsets.size() - unique_order.size();
  }

  // Tiers 1-2 per unique itemset; survivors share one exact pass. Tier
  // latencies go to the serving telemetry exactly as TryAnswerWithoutScan
  // records them, so batched traffic shows alongside inline answers.
  ServeTelemetry* telemetry = config_.telemetry;
  std::vector<uint64_t> latency_us(itemsets.size(), 0);
  std::vector<Itemset> needed;
  std::vector<size_t> needed_owner;  // index of the unique query it answers
  for (size_t i : unique_order) {
    WallTimer tier_timer;
    if (!AnswerFromTiersOneTwo(itemsets[i], &results[i])) {
      needed.push_back(itemsets[i]);
      needed_owner.push_back(i);
    } else if (telemetry != nullptr) {
      latency_us[i] =
          static_cast<uint64_t>(tier_timer.ElapsedSeconds() * 1e6);
      telemetry->RecordTierLatency(results[i].tier, latency_us[i]);
    }
  }
  if (!needed.empty()) {
    WallTimer sweep_timer;
    std::vector<uint64_t> counts = ExactCounts(needed);
    // Every survivor experienced the whole shared pass: that is its
    // tier-3 latency, so the exact histogram reflects what callers felt.
    const uint64_t sweep_us =
        static_cast<uint64_t>(sweep_timer.ElapsedSeconds() * 1e6);
    for (size_t q = 0; q < needed.size(); ++q) {
      QueryResult& result = results[needed_owner[q]];
      result.support = counts[q];
      result.tier = QueryTier::kExact;
      result.frequent = counts[q] >= config_.min_support;
      cache_.Insert(needed[q], counts[q]);
      latency_us[needed_owner[q]] = sweep_us;
      if (telemetry != nullptr) {
        telemetry->RecordTierLatency(QueryTier::kExact, sweep_us);
      }
    }
  }
  for (size_t i = 0; i < itemsets.size(); ++i) {
    if (alias[i] != i) {
      results[i] = results[alias[i]];
      latency_us[i] = latency_us[alias[i]];
    }
  }
  // Direct batch callers are their own end-to-end requests (no queue in
  // front), one per submitted itemset — duplicates included, since each
  // was a request even if it rode a twin's answer.
  if (telemetry != nullptr && options.record_requests) {
    for (size_t i = 0; i < itemsets.size(); ++i) {
      telemetry->RecordRequest(itemsets[i], results[i], /*queue_wait_us=*/0,
                               latency_us[i]);
    }
  }

  OSSM_HISTOGRAM_RECORD("serve.batch_queries", itemsets.size());
  OSSM_HISTOGRAM_RECORD("serve.batch_exact", needed.size());
  return results;
}

void QueryEngine::WithMapExclusive(
    const std::function<void(SegmentSupportMap&)>& fn) {
  OSSM_CHECK(map_ != nullptr) << "WithMapExclusive requires an attached map";
  std::unique_lock<std::shared_mutex> lock(map_mu_);
  fn(*map_);
}

uint32_t QueryEngine::map_segments() const {
  if (map_ == nullptr) return 0;
  std::shared_lock<std::shared_mutex> lock(map_mu_);
  return map_->num_segments();
}

EngineStats QueryEngine::Stats() const {
  EngineStats stats;
  stats.queries = queries_.load(std::memory_order_relaxed);
  stats.bound_rejects = bound_rejects_.load(std::memory_order_relaxed);
  stats.singleton_hits = singleton_hits_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  stats.exact_counts = exact_counts_.load(std::memory_order_relaxed);
  stats.bitmap_counts = bitmap_counts_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace serve
}  // namespace ossm

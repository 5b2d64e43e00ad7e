#ifndef OSSM_SERVE_QUERY_ENGINE_H_
#define OSSM_SERVE_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/segment_support_map.h"
#include "data/bitmap_index.h"
#include "data/item.h"
#include "data/transaction_database.h"
#include "serve/support_cache.h"

namespace ossm {
namespace serve {

class ServeTelemetry;

// Which tier of the serving path produced an answer.
enum class QueryTier : uint8_t {
  kBoundReject,  // OSSM screen: sup_hat(X) < minsup; support holds the bound
  kSingleton,    // exact singleton support read off the map's row totals
  kCacheHit,     // exact support replayed from the sharded LRU cache
  kExact,        // exact support from a CSR scan fanned over the thread pool
};
std::string_view QueryTierName(QueryTier tier);

struct QueryResult {
  // Exact support, except for kBoundReject where it is the equation-(1)
  // upper bound (the exact support is <= this and < minsup).
  uint64_t support = 0;
  QueryTier tier = QueryTier::kExact;
  bool frequent = false;  // support >= minsup; always false for rejects
};

// Monotonic per-engine tallies, readable without OSSM_METRICS (the TCP
// STATS verb and the bench harness report them).
struct EngineStats {
  uint64_t queries = 0;
  uint64_t bound_rejects = 0;
  uint64_t singleton_hits = 0;
  uint64_t cache_hits = 0;
  uint64_t exact_counts = 0;
  // Of the exact counts, how many were answered by the vertical bitmap
  // index rather than the CSR sweep.
  uint64_t bitmap_counts = 0;
  // Inert: always 0. Kept only because the repository benchmark
  // (perfbench/src/serve_workload.cc) still reads it; it goes together
  // with that read.
  uint64_t planner_saved = 0;
};

// Whether tier-3 exact counts run on the vertical bitmap index
// (data/bitmap_index.h) instead of the CSR containment sweep.
enum class BitmapMode : uint8_t {
  kAuto = 0,  // AutoBitmapFootprint(db).auto_uses_bitmaps decides
  kOn = 1,
  kOff = 2,
};

// The two tier-3 stores' footprints for `db` and BitmapMode::kAuto's rule
// over them: use bitmaps when the index would cost at most 4x the CSR store
// (item ids plus row offsets), i.e. average transaction density >= 1/128
// of the item domain; sparser rows are not worth the memory. Shape-only
// (BitmapIndex::FootprintBytesFor), so it is known before any index is
// built. `ossm_cli info` reports the same decision.
struct BitmapFootprint {
  uint64_t csr_bytes = 0;
  uint64_t bitmap_bytes = 0;
  bool auto_uses_bitmaps = false;
};
BitmapFootprint AutoBitmapFootprint(const TransactionDatabase& db);

struct QueryEngineConfig {
  // Absolute minimum support the bound screen rejects against. Callers
  // serving a fraction convert with `fraction * db.num_transactions()`.
  uint64_t min_support = 1;
  uint64_t cache_capacity = 1 << 16;  // entries
  uint32_t cache_shards = 16;
  BitmapMode bitmap_mode = BitmapMode::kAuto;
  // Optional serving telemetry (serve/telemetry.h): per-tier latency
  // histograms recorded on every query, independent of OSSM_METRICS.
  // Null disables. Must outlive the engine.
  ServeTelemetry* telemetry = nullptr;
  // Inert: the engine ignores it (tier 3 has one implementation per
  // storage shape, chosen by bitmap_mode). Kept only because the
  // repository benchmark (perfbench/src/serve_workload.cc) still assigns
  // it; it goes together with that assignment.
  bool enable_planner = true;
};

// Per-call knobs for QueryBatch.
struct QueryBatchOptions {
  // Record each query of the batch as one end-to-end request in the
  // serving telemetry (request histogram, qps window, slow-query log;
  // queue_wait 0, total = the tier latency the caller experienced). This
  // is what direct QueryBatch callers (the bench, embedded users) want so
  // batched traffic is visible alongside Query() traffic. The Batcher
  // passes false: it records requests itself with the real
  // enqueue-to-answer latency and queue-wait split.
  bool record_requests = true;
  // When non-null, receives how many itemsets of the batch repeated an
  // earlier one and rode its answer (the Batcher's coalesced tally).
  uint64_t* duplicates = nullptr;
};

// Answers itemset-support queries against an immutable TransactionDatabase,
// optionally screened by an OSSM. The three-tier path, cheapest first:
//
//   1. bound screen — when a map is attached and sup_hat(X) < minsup the
//      query is rejected without touching the collection (the admission
//      role the OSSM plays inside Apriori/DHP, now per query);
//   2. cache — exact supports of previously-counted itemsets replay from
//      the sharded LRU (singletons answer from exact row totals — the
//      map's when one is attached, the database's own otherwise — without
//      entering the cache at all);
//   3. exact — one implementation per storage shape: on sparse data a CSR
//      containment scan over the database, fanned across the
//      parallel::ThreadPool in deterministic shards (a batch costs one
//      sweep of the collection regardless of batch size); on data dense
//      enough for BitmapMode, AND+popcount of each itemset's rows in a
//      lazily-built vertical bitmap index, fanned per itemset. Both
//      produce the same exact supports.
//
// Tiers 1-2 are cheap enough to answer on the thread that receives a
// query (TryAnswerWithoutScan); only tier 3 is worth batching.
//
// Consistency contract: the database is immutable and exact answers are
// always computed against it. The attached map may be *appended to* while
// the engine serves (an OssmUpdater folding new pages in) — all query-path
// map reads take `map_mu_` shared, and writers must go through
// WithMapExclusive. Appends only ever increase per-segment counts, so
// sup_hat only grows and a reject issued under any interleaving remains
// sound for the served snapshot. Singleton answers track the map, so they
// match the database exactly only while the map describes exactly this
// database (the common case: a map built from it and not yet appended to).
class QueryEngine {
 public:
  // `map` may be null (no bound screen, no singleton fast path). Both
  // pointers must outlive the engine.
  QueryEngine(const TransactionDatabase* db, SegmentSupportMap* map,
              const QueryEngineConfig& config);

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // Answers one itemset: TryAnswerWithoutScan, then a one-element
  // QueryBatch when only an exact count will do. The itemset must be
  // strictly increasing and every item in [0, num_items); otherwise
  // kInvalidArgument.
  StatusOr<QueryResult> Query(std::span<const ItemId> itemset);

  // Tiers 1-2 as one complete request. Checks the query contract
  // (kInvalidArgument otherwise), then tries the bound screen, the
  // singleton totals and the cache. On an answer it fills *result, counts
  // the query, records its tier latency and one request (queue wait 0) in
  // both sinks, and returns true, so the caller may reply at once. Returns
  // false, having counted and recorded nothing, when only an exact count
  // can answer; the caller then owes the query a QueryBatch (directly or
  // through a Batcher wave). Takes the map lock shared, so a concurrent
  // WithMapExclusive stalls it.
  StatusOr<bool> TryAnswerWithoutScan(const Itemset& itemset,
                                      QueryResult* result);

  // Answers a batch in one pass: identical itemsets are deduplicated and
  // the survivors of tiers 1-2 share one exact tier (the bitmap AND per
  // itemset, or a single parallel CSR sweep), with results back in input
  // order. Results are bit-identical to issuing the queries one at a time
  // (for any OSSM_THREADS, any kernel ISA, either tier-3 implementation).
  StatusOr<std::vector<QueryResult>> QueryBatch(
      std::span<const Itemset> itemsets);
  StatusOr<std::vector<QueryResult>> QueryBatch(
      std::span<const Itemset> itemsets, const QueryBatchOptions& options);

  // Runs `fn` with the attached map locked exclusively against the query
  // path — the single-writer hook through which an OssmUpdater appends
  // pages while the engine keeps serving. Must not be called re-entrantly
  // from a query. No-op guard: requires a map to be attached.
  void WithMapExclusive(const std::function<void(SegmentSupportMap&)>& fn);

  // Checks the query contract (non-empty, strictly increasing, in-domain)
  // without answering. The batcher rejects malformed submissions up front
  // with this so one bad query can never fail a whole batch.
  Status ValidateItemset(std::span<const ItemId> itemset) const;

  uint64_t min_support() const { return config_.min_support; }
  const TransactionDatabase& db() const { return *db_; }
  bool has_map() const { return map_ != nullptr; }
  // Segment count of the attached map; 0 without one. Takes the shared
  // lock, so it is safe against a concurrent WithMapExclusive.
  uint32_t map_segments() const;
  const SupportCache& cache() const { return cache_; }
  // True when tier-3 exact counts run on the vertical bitmap index (the
  // resolved BitmapMode decision; the index itself builds lazily on the
  // first exact count).
  bool uses_bitmap_index() const { return use_bitmaps_; }

  EngineStats Stats() const;

 private:
  // Tier 1+2 for one valid itemset, tallied per tier but not timed or
  // recorded. Returns true when answered; otherwise the caller owes an
  // exact count.
  bool AnswerFromTiersOneTwo(std::span<const ItemId> itemset,
                             QueryResult* result);
  // Exact supports of every itemset in `needed`, via BitmapCounts or the
  // deterministic pool-sharded CSR sweep.
  std::vector<uint64_t> ExactCounts(const std::vector<Itemset>& needed);
  // Bitmap tier 3: builds the index on first use (call_once), then
  // AND+popcounts each itemset, fanned per itemset over the pool.
  std::vector<uint64_t> BitmapCounts(const std::vector<Itemset>& needed);

  const TransactionDatabase* db_;
  SegmentSupportMap* map_;
  QueryEngineConfig config_;
  SupportCache cache_;
  mutable std::shared_mutex map_mu_;

  bool use_bitmaps_ = false;
  std::once_flag bitmap_once_;
  BitmapIndex bitmap_;

  // Map-free singleton fast path: the database's own row totals, computed
  // once on the first singleton query of an engine without a map.
  std::once_flag db_singletons_once_;
  std::vector<uint64_t> db_item_supports_;

  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> bound_rejects_{0};
  std::atomic<uint64_t> singleton_hits_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> exact_counts_{0};
  std::atomic<uint64_t> bitmap_counts_{0};
};

}  // namespace serve
}  // namespace ossm

#endif  // OSSM_SERVE_QUERY_ENGINE_H_

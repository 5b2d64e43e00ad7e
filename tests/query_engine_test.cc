#include "serve/query_engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/ossm_builder.h"
#include "datagen/quest_generator.h"
#include "parallel/thread_pool.h"
#include "serve/telemetry.h"

namespace ossm {
namespace serve {
namespace {

struct Fixture {
  TransactionDatabase db;
  SegmentSupportMap map;
};

Fixture MakeFixture() {
  QuestConfig config;
  config.num_items = 50;
  config.num_transactions = 2000;
  config.avg_transaction_size = 6;
  config.num_patterns = 12;
  config.seed = 11;
  StatusOr<TransactionDatabase> db = GenerateQuest(config);
  OSSM_CHECK(db.ok());
  OssmBuildOptions options;
  options.algorithm = SegmentationAlgorithm::kRandomGreedy;
  options.target_segments = 16;
  options.transactions_per_page = 100;
  StatusOr<OssmBuildResult> build = BuildOssm(*db, options);
  OSSM_CHECK(build.ok());
  return Fixture{std::move(*db), std::move(build->map)};
}

uint64_t OracleSupport(const TransactionDatabase& db,
                       const Itemset& itemset) {
  uint64_t support = 0;
  for (uint64_t t = 0; t < db.num_transactions(); ++t) {
    if (db.Contains(t, itemset)) ++support;
  }
  return support;
}

TEST(QueryEngineTest, RejectsMalformedItemsets) {
  Fixture fx = MakeFixture();
  QueryEngine engine(&fx.db, &fx.map, QueryEngineConfig{});
  EXPECT_EQ(engine.Query(Itemset{}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Query(Itemset{3, 2}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Query(Itemset{4, 4}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Query(Itemset{1000}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryEngineTest, SingletonTierIsExact) {
  Fixture fx = MakeFixture();
  QueryEngineConfig config;
  config.min_support = 1;
  QueryEngine engine(&fx.db, &fx.map, config);
  std::vector<uint64_t> supports = fx.db.ComputeItemSupports();
  for (ItemId item = 0; item < fx.db.num_items(); item += 7) {
    StatusOr<QueryResult> result = engine.Query(Itemset{item});
    ASSERT_TRUE(result.ok());
    if (result->tier == QueryTier::kBoundReject) {
      // Support 0 items can be bound-rejected; the bound is still exact.
      EXPECT_EQ(supports[item], 0u);
      continue;
    }
    EXPECT_EQ(result->tier, QueryTier::kSingleton);
    EXPECT_EQ(result->support, supports[item]);
  }
}

TEST(QueryEngineTest, BoundRejectIsSoundAndBelowMinsup) {
  Fixture fx = MakeFixture();
  QueryEngineConfig config;
  config.min_support = fx.db.num_transactions();  // everything rejects
  QueryEngine engine(&fx.db, &fx.map, config);
  uint64_t rejects = 0;
  for (ItemId a = 0; a < 20; ++a) {
    Itemset pair = {a, static_cast<ItemId>(a + 20)};
    StatusOr<QueryResult> result = engine.Query(pair);
    ASSERT_TRUE(result.ok());
    if (result->tier != QueryTier::kBoundReject) continue;
    ++rejects;
    EXPECT_FALSE(result->frequent);
    EXPECT_LT(result->support, config.min_support);
    // Equation (1) is an upper bound: the exact support never exceeds it.
    EXPECT_LE(OracleSupport(fx.db, pair), result->support);
  }
  EXPECT_GT(rejects, 0u);
  EXPECT_EQ(engine.Stats().bound_rejects, rejects);
}

TEST(QueryEngineTest, ExactThenCacheHitAgree) {
  Fixture fx = MakeFixture();
  QueryEngineConfig config;
  config.min_support = 1;  // no rejects: force the exact tier
  QueryEngine engine(&fx.db, &fx.map, config);
  Itemset pair = {3, 17};
  StatusOr<QueryResult> first = engine.Query(pair);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->tier, QueryTier::kExact);
  EXPECT_EQ(first->support, OracleSupport(fx.db, pair));

  StatusOr<QueryResult> second = engine.Query(pair);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->tier, QueryTier::kCacheHit);
  EXPECT_EQ(second->support, first->support);
  EXPECT_EQ(engine.Stats().cache_hits, 1u);
}

TEST(QueryEngineTest, TryAnswerWithoutScanRecordsOnlyWhatItAnswers) {
  Fixture fx = MakeFixture();
  ServeTelemetry telemetry{ServeTelemetry::Config{}};
  QueryEngineConfig config;
  config.min_support = 1;  // no rejects
  config.telemetry = &telemetry;
  QueryEngine engine(&fx.db, &fx.map, config);
  QueryResult result;
  EXPECT_EQ(engine.TryAnswerWithoutScan(Itemset{17, 3}, &result)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Never counted: only a scan can answer, so nothing is counted or
  // recorded; the caller owes it a QueryBatch.
  Itemset pair = {3, 17};
  StatusOr<bool> miss = engine.TryAnswerWithoutScan(pair, &result);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(*miss);
  EXPECT_EQ(engine.Stats().queries, 0u);
  EXPECT_EQ(telemetry.request_histogram().count(), 0u);

  // Once counted, the cache answers it as one complete request.
  ASSERT_TRUE(engine.QueryBatch(std::vector<Itemset>{pair}).ok());
  StatusOr<bool> hit = engine.TryAnswerWithoutScan(pair, &result);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(*hit);
  EXPECT_EQ(result.tier, QueryTier::kCacheHit);
  EXPECT_EQ(result.support, OracleSupport(fx.db, pair));
  EXPECT_EQ(engine.Stats().queries, 2u);
  EXPECT_EQ(telemetry.request_histogram().count(), 2u);
  EXPECT_EQ(telemetry.tier_histogram(QueryTier::kCacheHit).count(), 1u);
}

TEST(QueryEngineTest, WorksWithoutAMap) {
  Fixture fx = MakeFixture();
  QueryEngineConfig config;
  config.min_support = 50;
  QueryEngine engine(&fx.db, nullptr, config);
  EXPECT_FALSE(engine.has_map());
  EXPECT_EQ(engine.map_segments(), 0u);
  Itemset single = {5};
  StatusOr<QueryResult> result = engine.Query(single);
  ASSERT_TRUE(result.ok());
  // Even without a map, singletons answer from the database's own row
  // totals — never from the exact tier.
  EXPECT_EQ(result->tier, QueryTier::kSingleton);
  EXPECT_EQ(result->support, OracleSupport(fx.db, single));
  Itemset pair = {5, 9};
  StatusOr<QueryResult> exact = engine.Query(pair);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->tier, QueryTier::kExact);
  EXPECT_EQ(exact->support, OracleSupport(fx.db, pair));
}

TEST(QueryEngineTest, MapFreeSingletonFastPathAttributesTier) {
  // Regression: singleton queries against a map-free engine used to fall
  // through to the LRU/exact tiers even though the immutable database's
  // row totals answer them exactly.
  Fixture fx = MakeFixture();
  QueryEngineConfig config;
  config.min_support = 10;
  QueryEngine engine(&fx.db, nullptr, config);
  std::vector<uint64_t> supports = fx.db.ComputeItemSupports();
  for (ItemId item = 0; item < fx.db.num_items(); ++item) {
    StatusOr<QueryResult> result = engine.Query(Itemset{item});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->tier, QueryTier::kSingleton) << "item " << item;
    EXPECT_EQ(result->support, supports[item]) << "item " << item;
    // Repeats must stay singleton hits, not turn into cache hits.
    StatusOr<QueryResult> again = engine.Query(Itemset{item});
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->tier, QueryTier::kSingleton) << "item " << item;
  }
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.singleton_hits, 2u * fx.db.num_items());
  EXPECT_EQ(stats.exact_counts, 0u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(engine.cache().size(), 0u);  // never occupies the LRU
}

TEST(QueryEngineTest, BatchMatchesSerialQueries) {
  Fixture fx = MakeFixture();
  QueryEngineConfig config;
  config.min_support = 40;
  std::vector<Itemset> queries;
  for (ItemId a = 0; a < 30; ++a) {
    queries.push_back({a});
    queries.push_back({a, static_cast<ItemId>(a + 11)});
  }
  queries.push_back({2, 13});  // duplicate of an earlier pair
  queries.push_back({2, 13});

  QueryEngine serial(&fx.db, &fx.map, config);
  std::vector<QueryResult> expected;
  for (const Itemset& q : queries) {
    StatusOr<QueryResult> result = serial.Query(q);
    ASSERT_TRUE(result.ok());
    expected.push_back(*result);
  }

  QueryEngine batched(&fx.db, &fx.map, config);
  StatusOr<std::vector<QueryResult>> results = batched.QueryBatch(queries);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ((*results)[i].support, expected[i].support) << "query " << i;
    EXPECT_EQ((*results)[i].frequent, expected[i].frequent) << "query " << i;
  }
}

// Both tier-3 implementations (bitmap AND per itemset, CSR sweep) give
// the same answers at 1 and 4 pool threads, and those answers match a
// straight containment count. (SimdDeterminismTest covers kernel ISAs.)
TEST(QueryEngineTest, BatchIsBitIdenticalAcrossThreadCounts) {
  Fixture fx = MakeFixture();
  QueryEngineConfig config;
  config.min_support = 30;
  std::vector<Itemset> queries;
  for (ItemId a = 0; a < 25; ++a) {
    queries.push_back({a, static_cast<ItemId>(a + 9),
                       static_cast<ItemId>(a + 21)});
    queries.push_back({a, static_cast<ItemId>(a + 4)});
  }

  for (BitmapMode mode : {BitmapMode::kOn, BitmapMode::kOff}) {
    SCOPED_TRACE(mode == BitmapMode::kOn ? "bitmap" : "csr");
    config.bitmap_mode = mode;
    std::vector<std::vector<QueryResult>> runs;
    for (uint32_t threads : {1u, 4u}) {
      parallel::SetDefaultThreadCount(threads);
      QueryEngine engine(&fx.db, &fx.map, config);
      EXPECT_EQ(engine.uses_bitmap_index(), mode == BitmapMode::kOn);
      StatusOr<std::vector<QueryResult>> results = engine.QueryBatch(queries);
      ASSERT_TRUE(results.ok());
      EXPECT_GT(engine.Stats().exact_counts, 0u);
      runs.push_back(std::move(*results));
    }
    parallel::SetDefaultThreadCount(parallel::DefaultThreadCount());
    ASSERT_EQ(runs[0].size(), queries.size());
    ASSERT_EQ(runs[1].size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(runs[0][i].support, runs[1][i].support) << "query " << i;
      EXPECT_EQ(runs[0][i].tier, runs[1][i].tier) << "query " << i;
      const uint64_t exact = OracleSupport(fx.db, queries[i]);
      if (runs[0][i].tier == QueryTier::kBoundReject) {
        EXPECT_LE(exact, runs[0][i].support) << "query " << i;
      } else {
        EXPECT_EQ(runs[0][i].support, exact) << "query " << i;
      }
    }
  }
}

TEST(QueryEngineTest, BatchErrorNamesTheBadItemset) {
  Fixture fx = MakeFixture();
  QueryEngine engine(&fx.db, &fx.map, QueryEngineConfig{});
  std::vector<Itemset> queries = {{1}, {2, 3}, {9, 4}};  // index 2 unsorted
  StatusOr<std::vector<QueryResult>> results = engine.QueryBatch(queries);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(results.status().message().find("itemset 2"), std::string::npos)
      << results.status().ToString();
}

TEST(QueryEngineTest, StatsTallyEveryTier) {
  Fixture fx = MakeFixture();
  QueryEngineConfig config;
  config.min_support = 200;
  QueryEngine engine(&fx.db, &fx.map, config);
  uint64_t issued = 0;
  for (ItemId a = 0; a < 40; ++a) {
    ASSERT_TRUE(engine.Query(Itemset{a, static_cast<ItemId>(a + 5)}).ok());
    ++issued;
  }
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries, issued);
  EXPECT_EQ(stats.bound_rejects + stats.singleton_hits + stats.cache_hits +
                stats.exact_counts,
            issued);
}

TEST(QueryEngineTest, BatchRecordsTierLatenciesInTelemetry) {
  // Regression: batched tier-1/2 answers (and exact ones) must reach the
  // serving telemetry's per-tier histograms exactly as Query() answers do.
  Fixture fx = MakeFixture();
  ServeTelemetry telemetry{ServeTelemetry::Config{}};
  QueryEngineConfig config;
  config.min_support = 40;
  config.telemetry = &telemetry;
  QueryEngine engine(&fx.db, &fx.map, config);

  std::vector<Itemset> queries;
  for (ItemId a = 0; a < 10; ++a) {
    queries.push_back({a});                                // tier singleton
    queries.push_back({a, static_cast<ItemId>(a + 13)});   // reject or exact
  }
  StatusOr<std::vector<QueryResult>> results = engine.QueryBatch(queries);
  ASSERT_TRUE(results.ok());

  uint64_t singletons = 0;
  uint64_t exacts = 0;
  for (const QueryResult& r : *results) {
    singletons += r.tier == QueryTier::kSingleton ? 1 : 0;
    exacts += r.tier == QueryTier::kExact ? 1 : 0;
  }
  ASSERT_GT(singletons, 0u);
  ASSERT_GT(exacts, 0u);
  // One record per answered query, per tier.
  EXPECT_EQ(telemetry.tier_histogram(QueryTier::kSingleton).count(),
            singletons);
  EXPECT_EQ(telemetry.tier_histogram(QueryTier::kExact).count(), exacts);
}

TEST(QueryEngineTest, BatchRecordsRequestsForDirectCallers) {
  // Regression: direct QueryBatch callers never reached RecordRequest, so
  // batched traffic was invisible to the request histogram/qps window. The
  // default options record one request per submitted itemset (duplicates
  // included); the Batcher opts out and records its own.
  Fixture fx = MakeFixture();
  ServeTelemetry telemetry{ServeTelemetry::Config{}};
  QueryEngineConfig config;
  config.min_support = 40;
  config.telemetry = &telemetry;
  QueryEngine engine(&fx.db, &fx.map, config);

  std::vector<Itemset> queries = {{1}, {2, 7}, {2, 7}, {3, 9, 21}};
  ASSERT_TRUE(engine.QueryBatch(queries).ok());
  EXPECT_EQ(telemetry.request_histogram().count(), queries.size());

  QueryBatchOptions opt_out;
  opt_out.record_requests = false;
  ASSERT_TRUE(engine.QueryBatch(queries, opt_out).ok());
  EXPECT_EQ(telemetry.request_histogram().count(), queries.size());
}

}  // namespace
}  // namespace serve
}  // namespace ossm

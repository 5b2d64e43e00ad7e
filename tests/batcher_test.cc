#include "serve/batcher.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "core/ossm_builder.h"
#include "datagen/quest_generator.h"
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
  config.num_items = 40;
  config.num_transactions = 1500;
  config.avg_transaction_size = 5;
  config.num_patterns = 10;
  config.seed = 3;
  StatusOr<TransactionDatabase> db = GenerateQuest(config);
  OSSM_CHECK(db.ok());
  OssmBuildOptions options;
  options.algorithm = SegmentationAlgorithm::kRandom;
  options.target_segments = 8;
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

// A pair that actually co-occurs, so a minsup-1 engine cannot bound-reject
// it and must take the exact tier.
Itemset CooccurringPair(const TransactionDatabase& db) {
  for (uint64_t t = 0; t < db.num_transactions(); ++t) {
    std::span<const ItemId> txn = db.transaction(t);
    if (txn.size() >= 2) return {txn[0], txn[1]};
  }
  OSSM_CHECK(false) << "fixture has no transaction with two items";
  return {};
}

// Holds the dispatch thread inside the callback of a first, one-query wave,
// so that submissions made meanwhile queue up and share the next wave
// deterministically. That query is the singleton {1}, which never takes
// the exact tier. Releases on destruction if the test has not.
class DispatcherStall {
 public:
  explicit DispatcherStall(Batcher* batcher) {
    std::shared_future<void> released = release_.get_future().share();
    Status admitted = batcher->SubmitAsync(
        Itemset{1}, [this, released](const StatusOr<QueryResult>&) {
          entered_.set_value();
          released.wait();
        });
    OSSM_CHECK(admitted.ok()) << admitted.ToString();
    entered_.get_future().wait();
  }
  ~DispatcherStall() { Release(); }

  void Release() {
    if (released_) return;
    released_ = true;
    release_.set_value();
  }

 private:
  std::promise<void> entered_;
  std::promise<void> release_;
  bool released_ = false;
};

TEST(BatcherTest, SubmitResolvesWithTheExactAnswer) {
  Fixture fx = MakeFixture();
  QueryEngineConfig engine_config;
  engine_config.min_support = 1;
  QueryEngine engine(&fx.db, &fx.map, engine_config);
  Batcher batcher(&engine, BatcherConfig{});
  Itemset pair = {2, 9};
  std::future<StatusOr<QueryResult>> future = batcher.Submit(pair);
  StatusOr<QueryResult> result = future.get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->support, OracleSupport(fx.db, pair));
}

TEST(BatcherTest, LoneQueryIsNotHeldForCompany) {
  Fixture fx = MakeFixture();
  QueryEngine engine(&fx.db, &fx.map, QueryEngineConfig{});
  BatcherConfig config;
  config.max_delay_us = 60'000'000;  // ignored; a window would hold 60 s
  Batcher batcher(&engine, config);
  std::future<StatusOr<QueryResult>> future = batcher.Submit(Itemset{2, 9});
  ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_TRUE(future.get().ok());
  EXPECT_EQ(batcher.batches_dispatched(), 1u);
}

TEST(BatcherTest, RequestIsRecordedBeforeItsCallbackRuns) {
  Fixture fx = MakeFixture();
  ServeTelemetry telemetry{ServeTelemetry::Config{}};
  QueryEngine engine(&fx.db, &fx.map, QueryEngineConfig{});
  BatcherConfig config;
  config.telemetry = &telemetry;
  std::promise<uint64_t> recorded;  // outlives the batcher and its callback
  Batcher batcher(&engine, config);
  // The callback is what hands a reply to the client; by then the request
  // must already be visible to a METRICS or SLOWLOG scrape.
  ASSERT_TRUE(batcher
                  .SubmitAsync(Itemset{2, 9},
                               [&](const StatusOr<QueryResult>& result) {
                                 EXPECT_TRUE(result.ok());
                                 recorded.set_value(
                                     telemetry.request_histogram().count());
                               })
                  .ok());
  EXPECT_EQ(recorded.get_future().get(), 1u);
}

TEST(BatcherTest, FullBatchDispatchesAsOneWave) {
  Fixture fx = MakeFixture();
  QueryEngineConfig engine_config;
  engine_config.min_support = 1;
  QueryEngine engine(&fx.db, &fx.map, engine_config);
  BatcherConfig config;
  config.max_batch = 8;
  Batcher batcher(&engine, config);

  DispatcherStall stall(&batcher);
  std::vector<std::future<StatusOr<QueryResult>>> futures;
  for (ItemId a = 0; a < 8; ++a) {
    futures.push_back(
        batcher.Submit(Itemset{a, static_cast<ItemId>(a + 10)}));
  }
  stall.Release();
  for (auto& future : futures) {
    ASSERT_TRUE(future.get().ok());
  }
  // The stalling wave, then all eight queued queries as one.
  EXPECT_EQ(batcher.batches_dispatched(), 2u);
}

TEST(BatcherTest, MaxBatchCapsEachWave) {
  Fixture fx = MakeFixture();
  QueryEngine engine(&fx.db, &fx.map, QueryEngineConfig{});
  BatcherConfig config;
  config.max_batch = 2;
  Batcher batcher(&engine, config);

  DispatcherStall stall(&batcher);
  std::vector<std::future<StatusOr<QueryResult>>> futures;
  for (ItemId a = 0; a < 6; ++a) {
    futures.push_back(batcher.Submit(Itemset{a}));
  }
  stall.Release();
  for (auto& future : futures) {
    ASSERT_TRUE(future.get().ok());
  }
  // The stalling wave, then six queued queries in waves of two.
  EXPECT_EQ(batcher.batches_dispatched(), 4u);
}

TEST(BatcherTest, DuplicateSubmissionsCoalesceToOneExactCount) {
  Fixture fx = MakeFixture();
  QueryEngineConfig engine_config;
  engine_config.min_support = 1;
  QueryEngine engine(&fx.db, &fx.map, engine_config);
  BatcherConfig config;
  config.max_batch = 8;
  Batcher batcher(&engine, config);

  Itemset pair = CooccurringPair(fx.db);
  DispatcherStall stall(&batcher);
  std::vector<std::future<StatusOr<QueryResult>>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(batcher.Submit(pair));
  stall.Release();
  uint64_t expected = OracleSupport(fx.db, pair);
  for (auto& future : futures) {
    StatusOr<QueryResult> result = future.get();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->support, expected);
  }
  // Eight submissions, one wave, one engine slot: seven coalesced, one
  // exact scan.
  EXPECT_EQ(batcher.batches_dispatched(), 2u);
  EXPECT_EQ(batcher.queries_coalesced(), 7u);
  EXPECT_EQ(engine.Stats().exact_counts, 1u);
}

TEST(BatcherTest, MalformedItemsetRejectedAtAdmission) {
  Fixture fx = MakeFixture();
  QueryEngine engine(&fx.db, &fx.map, QueryEngineConfig{});
  Batcher batcher(&engine, BatcherConfig{});
  std::atomic<bool> callback_ran{false};
  Status admitted = batcher.SubmitAsync(
      Itemset{9, 2},  // unsorted
      [&callback_ran](const StatusOr<QueryResult>&) {
        callback_ran.store(true);
      });
  EXPECT_EQ(admitted.code(), StatusCode::kInvalidArgument);
  batcher.Shutdown();
  EXPECT_FALSE(callback_ran.load());
}

TEST(BatcherTest, BackpressureRejectsWhenQueueIsFull) {
  Fixture fx = MakeFixture();
  QueryEngineConfig engine_config;
  engine_config.min_support = 1;
  QueryEngine engine(&fx.db, &fx.map, engine_config);
  BatcherConfig config;
  config.max_batch = 1;
  config.max_queue = 1;
  Batcher batcher(&engine, config);

  DispatcherStall stall(&batcher);
  // Dispatcher is blocked: the first submit fills the queue (size 1), the
  // second hits the wall.
  ASSERT_TRUE(batcher.SubmitAsync(Itemset{2},
                                  [](const StatusOr<QueryResult>&) {})
                  .ok());
  Status overflow = batcher.SubmitAsync(
      Itemset{3}, [](const StatusOr<QueryResult>&) {});
  EXPECT_EQ(overflow.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(batcher.backpressure_rejects(), 1u);

  stall.Release();
  batcher.Shutdown();
}

TEST(BatcherTest, ShutdownDrainsAcceptedWork) {
  Fixture fx = MakeFixture();
  QueryEngineConfig engine_config;
  engine_config.min_support = 1;
  QueryEngine engine(&fx.db, &fx.map, engine_config);
  Batcher batcher(&engine, BatcherConfig{});

  DispatcherStall stall(&batcher);
  std::vector<std::future<StatusOr<QueryResult>>> futures;
  for (ItemId a = 0; a < 5; ++a) {
    futures.push_back(batcher.Submit(Itemset{a}));
  }
  std::thread closer([&batcher] { batcher.Shutdown(); });
  // Wait until admission has closed, so the five are drained by a batcher
  // that is already shutting down. Probes admitted before then are
  // accepted work like any other.
  for (;;) {
    Status probe = batcher.SubmitAsync(Itemset{7},
                                       [](const StatusOr<QueryResult>&) {});
    if (probe.code() == StatusCode::kFailedPrecondition) break;
    EXPECT_TRUE(probe.ok()) << probe.ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stall.Release();
  closer.join();  // must drain, not hang
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(future.get().ok());
  }
}

TEST(BatcherTest, SubmitAfterShutdownIsFailedPrecondition) {
  Fixture fx = MakeFixture();
  QueryEngine engine(&fx.db, &fx.map, QueryEngineConfig{});
  Batcher batcher(&engine, BatcherConfig{});
  batcher.Shutdown();
  std::future<StatusOr<QueryResult>> future = batcher.Submit(Itemset{1});
  StatusOr<QueryResult> result = future.get();
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  batcher.Shutdown();  // idempotent
}

}  // namespace
}  // namespace serve
}  // namespace ossm

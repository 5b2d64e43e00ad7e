// Serving-path throughput: the batched OSSM-backed query engine answering
// a seeded stream of support queries with head-heavy reuse (so every tier
// of the path — bound reject, singleton, cache hit, exact CSR scan — sees
// real traffic). Two measured drives over the same stream:
//   - serve_engine:  QueryEngine::QueryBatch in fixed-size waves (the
//     engine's amortized exact tier, no thread handoff);
//   - serve_batcher: the same stream pushed through the Batcher, which
//     dispatches up to max-batch pending queries whenever it is free,
//     completion-counted (the path a TCP request actually takes, minus the
//     socket);
//   - serve_planner_off / serve_planner_on: shared-prefix waves of unique
//     tier-3 queries against map-free bitmap-backed engines, with the
//     batch planner disabled then enabled — the planner's target shape,
//     isolating the exact tier.
// Reported values (picked up by bench_compare's direction heuristics):
// serve_qps / batcher_qps / planner_qps / planner_speedup and
// intersections_saved higher-is-better, cache_hit_ratio higher-is-better,
// bound_reject_ratio informational. The telemetry block adds windowed
// (last-1m) p50/p95/p99 per tier plus request and queue-wait percentiles,
// and the planner drive adds per-wave percentiles — all *_us, so
// lower-is-better.

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <span>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "core/ossm_builder.h"
#include "obs/hdr_histogram.h"
#include "serve/batcher.h"
#include "serve/query_engine.h"
#include "serve/telemetry.h"

namespace ossm {
namespace {

using serve::Batcher;
using serve::BatcherConfig;
using serve::QueryEngine;
using serve::QueryEngineConfig;
using serve::QueryResult;

// Draws a sorted, deduplicated itemset of 1-3 items over [0, num_items).
Itemset RandomItemset(Rng& rng, uint32_t num_items) {
  size_t size = 1 + static_cast<size_t>(rng.UniformInt(3));
  Itemset itemset;
  for (size_t i = 0; i < size; ++i) {
    itemset.push_back(static_cast<ItemId>(rng.UniformInt(num_items)));
  }
  std::sort(itemset.begin(), itemset.end());
  itemset.erase(std::unique(itemset.begin(), itemset.end()), itemset.end());
  return itemset;
}

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv,
                     {"scale", "seed", "transactions", "items", "queries",
                      "batch", "threshold-permille", "cache", "report"});
  bench::BenchReporter reporter("serve", flags);
  bool paper = flags.PaperScale();
  uint64_t num_transactions =
      flags.GetInt("transactions", paper ? 100000 : 20000);
  uint32_t num_items =
      static_cast<uint32_t>(flags.GetInt("items", paper ? 1000 : 400));
  uint64_t num_queries = flags.GetInt("queries", paper ? 200000 : 40000);
  uint32_t batch = static_cast<uint32_t>(flags.GetInt("batch", 64));
  // Support threshold in thousandths of the collection (10 = 1%).
  uint64_t threshold_permille = flags.GetInt("threshold-permille", 10);
  uint64_t cache_capacity = flags.GetInt("cache", 1 << 15);
  uint64_t seed = flags.GetInt("seed", 1);

  std::printf(
      "Serving throughput — batched query engine over a drifting workload\n"
      "%llu transactions, %u items, %llu queries, wave %u, "
      "threshold %.1f%%\n\n",
      static_cast<unsigned long long>(num_transactions), num_items,
      static_cast<unsigned long long>(num_queries), batch,
      static_cast<double>(threshold_permille) / 10.0);

  reporter.SetWorkload("transactions", num_transactions);
  reporter.SetWorkload("items", static_cast<uint64_t>(num_items));
  reporter.SetWorkload("queries", num_queries);
  reporter.SetWorkload("batch", static_cast<uint64_t>(batch));
  reporter.SetWorkload("threshold_permille", threshold_permille);
  reporter.SetWorkload("cache_capacity", cache_capacity);
  reporter.SetWorkload("seed", seed);

  TransactionDatabase db = [&] {
    bench::BenchReporter::ScopedPhase phase(reporter, "generate");
    return bench::DriftingSynthetic(num_transactions, num_items, seed);
  }();

  OssmBuildOptions build_options;
  build_options.algorithm = SegmentationAlgorithm::kRandomGreedy;
  build_options.target_segments = 64;
  build_options.transactions_per_page = 100;
  build_options.seed = seed;
  StatusOr<OssmBuildResult> build = [&] {
    bench::BenchReporter::ScopedPhase phase(reporter, "build_map");
    return BuildOssm(db, build_options);
  }();
  OSSM_CHECK(build.ok()) << build.status().ToString();
  SegmentSupportMap map = std::move(build->map);

  uint64_t min_support =
      std::max<uint64_t>(1, num_transactions * threshold_permille / 1000);

  // Seeded query stream with head-heavy reuse: 60% of queries replay one
  // of a small hot pool (cache-hit traffic), the rest are fresh draws
  // (bound-reject / exact traffic).
  std::vector<Itemset> stream;
  stream.reserve(num_queries);
  {
    Rng rng(seed * 7919 + 17);
    std::vector<Itemset> hot_pool;
    for (int i = 0; i < 512; ++i) {
      hot_pool.push_back(RandomItemset(rng, num_items));
    }
    for (uint64_t q = 0; q < num_queries; ++q) {
      if (rng.Bernoulli(0.6)) {
        stream.push_back(
            hot_pool[static_cast<size_t>(rng.UniformInt(hot_pool.size()))]);
      } else {
        stream.push_back(RandomItemset(rng, num_items));
      }
    }
  }

  // Telemetry rides along exactly as in production serving; the slowlog is
  // parked far above any plausible latency so its mutex stays cold.
  serve::ServeTelemetry::Config telemetry_config;
  telemetry_config.slowlog_threshold_us = UINT64_MAX;
  serve::ServeTelemetry telemetry(telemetry_config);

  QueryEngineConfig engine_config;
  engine_config.min_support = min_support;
  engine_config.cache_capacity = cache_capacity;
  engine_config.telemetry = &telemetry;
  QueryEngine engine(&db, &map, engine_config);

  // Drive 1: the engine's batched path, fixed waves.
  double engine_seconds = 0;
  {
    bench::BenchReporter::ScopedPhase phase(reporter, "serve_engine");
    WallTimer timer;
    for (uint64_t start = 0; start < stream.size(); start += batch) {
      uint64_t end = std::min<uint64_t>(start + batch, stream.size());
      std::span<const Itemset> wave(stream.data() + start,
                                    static_cast<size_t>(end - start));
      StatusOr<std::vector<QueryResult>> results = engine.QueryBatch(wave);
      OSSM_CHECK(results.ok()) << results.status().ToString();
    }
    engine_seconds = timer.ElapsedSeconds();
  }

  // Drive 2: the same stream through the Batcher's admission queue.
  BatcherConfig batcher_config;
  batcher_config.max_batch = batch;
  batcher_config.max_queue =
      static_cast<uint32_t>(std::min<uint64_t>(num_queries, 1u << 20));
  batcher_config.telemetry = &telemetry;
  Batcher batcher(&engine, batcher_config);
  double batcher_seconds = 0;
  {
    bench::BenchReporter::ScopedPhase phase(reporter, "serve_batcher");
    std::mutex mu;
    std::condition_variable cv;
    uint64_t completed = 0;
    WallTimer timer;
    for (const Itemset& itemset : stream) {
      Status admitted =
          batcher.SubmitAsync(itemset, [&](const StatusOr<QueryResult>& r) {
            OSSM_CHECK(r.ok()) << r.status().ToString();
            std::lock_guard<std::mutex> lock(mu);
            if (++completed == num_queries) cv.notify_one();
          });
      OSSM_CHECK(admitted.ok()) << admitted.ToString();
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed == num_queries; });
    batcher_seconds = timer.ElapsedSeconds();
  }
  batcher.Shutdown();

  // Drive 3: shared-prefix waves — the planner's target shape. Map-free
  // engines (no bound screen) with the bitmap index forced on, and every
  // query unique, so tiers 1-2 never answer and the drive times the exact
  // tier alone, planner off vs on. Each 64-query wave draws all its
  // queries as {3-item hot prefix} + {t1} + {t2}: the prefix items are the
  // most selective in the domain and t1 precedes every t2 in the global
  // selectivity order, so the planner's ordered forms provably align and
  // shared prefixes cost one AND per wave instead of one per query.
  //
  // The drive runs over its own taller collection (16x the transactions):
  // an AND's cost scales with row words, and serving bitmap indexes earn
  // their keep on collections of >= 10^5 transactions — at bench height
  // the rows are so short that per-query batch bookkeeping, identical in
  // both lanes, would drown the AND savings under measurement.
  const uint64_t planner_transactions = num_transactions * 16;
  reporter.SetWorkload("planner_transactions", planner_transactions);
  TransactionDatabase planner_db = [&] {
    bench::BenchReporter::ScopedPhase phase(reporter, "generate_planner_db");
    return bench::DriftingSynthetic(planner_transactions, num_items,
                                    seed + 1);
  }();
  std::vector<std::vector<Itemset>> planner_waves;
  {
    std::vector<uint64_t> supports = planner_db.ComputeItemSupports();
    std::vector<ItemId> order(num_items);
    for (ItemId i = 0; i < num_items; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](ItemId a, ItemId b) {
      if (supports[a] != supports[b]) return supports[a] < supports[b];
      return a < b;
    });
    const size_t prefix_items = order.size() / 3;
    const size_t num_triples = prefix_items / 3;
    std::vector<ItemId> tails(order.begin() + prefix_items, order.end());
    OSSM_CHECK(num_triples >= 1 && tails.size() > 40)
        << "--items too small for the shared-prefix drive";
    const size_t kHalf = 32;  // queries per (prefix, t1) slot
    const size_t t1_slots = tails.size() - kHalf - 1;
    // Unique (prefix, t1) per slot; t2 walks the tails after t1. Capped at
    // the unique-query capacity so repeats never turn into cache hits.
    uint64_t planner_queries =
        std::min<uint64_t>(num_queries, num_triples * t1_slots * kHalf);
    const uint64_t num_slots = planner_queries / kHalf;
    for (uint64_t s = 0; s < num_slots; ++s) {
      if (s % 2 == 0) planner_waves.emplace_back();
      const size_t t1_index = static_cast<size_t>(s % t1_slots);
      const size_t triple = static_cast<size_t>((s / t1_slots) % num_triples);
      for (size_t k = 0; k < kHalf; ++k) {
        Itemset query = {order[3 * triple], order[3 * triple + 1],
                         order[3 * triple + 2], tails[t1_index],
                         tails[t1_index + 1 + k]};
        std::sort(query.begin(), query.end());
        planner_waves.back().push_back(std::move(query));
      }
    }
  }

  QueryEngineConfig planner_engine_config;
  planner_engine_config.min_support =
      std::max<uint64_t>(1, planner_transactions * threshold_permille / 1000);
  planner_engine_config.cache_capacity = cache_capacity;
  planner_engine_config.bitmap_mode = serve::BitmapMode::kOn;
  double planner_off_seconds = 0;
  double planner_on_seconds = 0;
  obs::HdrSnapshot planner_wave_us;
  planner_engine_config.enable_planner = false;
  QueryEngine planner_off_engine(&planner_db, nullptr, planner_engine_config);
  {
    bench::BenchReporter::ScopedPhase phase(reporter, "serve_planner_off");
    WallTimer timer;
    for (const std::vector<Itemset>& wave : planner_waves) {
      StatusOr<std::vector<QueryResult>> results =
          planner_off_engine.QueryBatch(wave);
      OSSM_CHECK(results.ok()) << results.status().ToString();
    }
    planner_off_seconds = timer.ElapsedSeconds();
  }
  planner_engine_config.enable_planner = true;
  QueryEngine planner_on_engine(&planner_db, nullptr, planner_engine_config);
  {
    bench::BenchReporter::ScopedPhase phase(reporter, "serve_planner_on");
    WallTimer timer;
    for (const std::vector<Itemset>& wave : planner_waves) {
      WallTimer wave_timer;
      StatusOr<std::vector<QueryResult>> results =
          planner_on_engine.QueryBatch(wave);
      OSSM_CHECK(results.ok()) << results.status().ToString();
      planner_wave_us.Record(
          static_cast<uint64_t>(wave_timer.ElapsedSeconds() * 1e6));
    }
    planner_on_seconds = timer.ElapsedSeconds();
  }
  uint64_t planner_query_count = 0;
  for (const std::vector<Itemset>& wave : planner_waves) {
    planner_query_count += wave.size();
  }
  serve::PlannerStats planner_stats = planner_on_engine.planner_stats();
  double planner_off_qps =
      planner_off_seconds > 0
          ? static_cast<double>(planner_query_count) / planner_off_seconds
          : 0;
  double planner_qps =
      planner_on_seconds > 0
          ? static_cast<double>(planner_query_count) / planner_on_seconds
          : 0;
  double planner_speedup =
      planner_on_seconds > 0 ? planner_off_seconds / planner_on_seconds : 0;
  const uint64_t planner_naive_ands =
      planner_stats.nodes_materialized + planner_stats.intersections_saved;
  double planner_saved_ratio =
      planner_naive_ands > 0
          ? static_cast<double>(planner_stats.intersections_saved) /
                static_cast<double>(planner_naive_ands)
          : 0;

  serve::EngineStats stats = engine.Stats();
  double total = static_cast<double>(stats.queries);
  double serve_qps =
      engine_seconds > 0 ? static_cast<double>(num_queries) / engine_seconds
                         : 0;
  double batcher_qps =
      batcher_seconds > 0 ? static_cast<double>(num_queries) / batcher_seconds
                          : 0;
  double cache_hit_ratio =
      total > 0 ? static_cast<double>(stats.cache_hits) / total : 0;
  double bound_reject_ratio =
      total > 0 ? static_cast<double>(stats.bound_rejects) / total : 0;

  TablePrinter table({"tier", "answers"});
  table.AddRow({"bound_reject", TablePrinter::FormatCount(stats.bound_rejects)});
  table.AddRow({"singleton", TablePrinter::FormatCount(stats.singleton_hits)});
  table.AddRow({"cache_hit", TablePrinter::FormatCount(stats.cache_hits)});
  table.AddRow({"exact", TablePrinter::FormatCount(stats.exact_counts)});
  table.Print(std::cout);

  // Windowed latency percentiles over the last minute of the run — the
  // numbers a Prometheus scrape of a live server would report.
  constexpr size_t kWin = serve::ServeTelemetry::kLongWindows;
  struct Lane {
    const char* key;   // reported value prefix
    const char* name;  // table label
    obs::HdrSnapshot snap;
  };
  std::vector<Lane> lanes;
  lanes.push_back({"request", "request", telemetry.RequestWindow(kWin)});
  lanes.push_back(
      {"queue_wait", "queue wait", telemetry.QueueWaitWindow(kWin)});
  constexpr serve::QueryTier kAllTiers[] = {
      serve::QueryTier::kBoundReject, serve::QueryTier::kSingleton,
      serve::QueryTier::kCacheHit, serve::QueryTier::kExact};
  constexpr const char* kTierKeys[] = {"tier_reject", "tier_singleton",
                                       "tier_cache", "tier_exact"};
  for (size_t i = 0; i < 4; ++i) {
    lanes.push_back({kTierKeys[i],
                     serve::QueryTierName(kAllTiers[i]).data(),
                     telemetry.TierWindow(kAllTiers[i], kWin)});
  }
  TablePrinter latency({"lane", "p50 us", "p95 us", "p99 us", "samples"});
  for (Lane& lane : lanes) {
    latency.AddRow({lane.name,
                    TablePrinter::FormatDouble(lane.snap.Percentile(0.50)),
                    TablePrinter::FormatDouble(lane.snap.Percentile(0.95)),
                    TablePrinter::FormatDouble(lane.snap.Percentile(0.99)),
                    TablePrinter::FormatCount(lane.snap.count())});
    reporter.AddValue(std::string(lane.key) + "_p50_us",
                      lane.snap.Percentile(0.50));
    reporter.AddValue(std::string(lane.key) + "_p95_us",
                      lane.snap.Percentile(0.95));
    reporter.AddValue(std::string(lane.key) + "_p99_us",
                      lane.snap.Percentile(0.99));
  }
  std::printf("\nwindowed latency (last %zus of the run):\n",
              static_cast<size_t>(kWin));
  latency.Print(std::cout);
  std::printf(
      "\nserve_qps (engine waves): %.0f\n"
      "batcher_qps (window):     %.0f\n"
      "cache_hit_ratio: %.3f   bound_reject_ratio: %.3f\n",
      serve_qps, batcher_qps, cache_hit_ratio, bound_reject_ratio);

  std::printf(
      "\nshared-prefix planner drive (%llu unique tier-3 queries):\n"
      "planner_off_qps: %.0f   planner_qps: %.0f   speedup: %.2fx\n"
      "intersections: %llu executed, %llu saved (%.1f%% of naive), "
      "%llu LRU replays\n"
      "planner wave p50/p95/p99 us: %.0f / %.0f / %.0f\n",
      static_cast<unsigned long long>(planner_query_count), planner_off_qps,
      planner_qps, planner_speedup,
      static_cast<unsigned long long>(planner_stats.nodes_materialized),
      static_cast<unsigned long long>(planner_stats.intersections_saved),
      planner_saved_ratio * 100.0,
      static_cast<unsigned long long>(planner_stats.intermediate_hits),
      planner_wave_us.Percentile(0.50), planner_wave_us.Percentile(0.95),
      planner_wave_us.Percentile(0.99));

  reporter.AddValue("serve_qps", serve_qps);
  reporter.AddValue("batcher_qps", batcher_qps);
  reporter.AddValue("cache_hit_ratio", cache_hit_ratio);
  reporter.AddValue("bound_reject_ratio", bound_reject_ratio);
  reporter.AddValue("coalesced",
                    static_cast<double>(batcher.queries_coalesced()));
  reporter.AddValue("planner_off_qps", planner_off_qps);
  reporter.AddValue("planner_qps", planner_qps);
  reporter.AddValue("planner_speedup", planner_speedup);
  reporter.AddValue("intersections_saved",
                    static_cast<double>(planner_stats.intersections_saved));
  reporter.AddValue("planner_saved_ratio", planner_saved_ratio);
  reporter.AddValue("planner_lru_replays",
                    static_cast<double>(planner_stats.intermediate_hits));
  reporter.AddValue("planner_wave_p50_us", planner_wave_us.Percentile(0.50));
  reporter.AddValue("planner_wave_p95_us", planner_wave_us.Percentile(0.95));
  reporter.AddValue("planner_wave_p99_us", planner_wave_us.Percentile(0.99));
  return reporter.Finish();
}

}  // namespace
}  // namespace ossm

int main(int argc, char** argv) { return ossm::Run(argc, argv); }

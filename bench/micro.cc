// Micro-benchmarks (google-benchmark) for the kernels everything else is
// built from: the equation-(1) upper bound, the pairwise ossub loss, the
// configuration comparison, and hash-tree candidate counting — plus the
// sharded counting pass at several thread counts. Besides the benchmark
// tables, the binary writes BENCH_parallel.json with the thread-count sweep
// so the speedup is machine-checkable.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <numeric>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "core/configuration.h"
#include "core/ossub.h"
#include "core/segment_support_map.h"
#include "datagen/quest_generator.h"
#include "mining/hash_tree.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "parallel/thread_pool.h"

namespace ossm {
namespace {

// One config drives both BM_ParallelHashTreeCounting and the sweep that
// writes BENCH_parallel.json, so the benchmark table and the regression
// baseline measure the same workload. All seeds are explicit: the dataset
// and the candidate pool are bit-identical across runs and machines.
struct ParallelSweepConfig {
  uint32_t num_items = 300;
  uint64_t num_transactions = 20000;
  double avg_transaction_size = 10;
  uint32_t num_patterns = 40;
  uint64_t dataset_seed = 42;
  uint64_t candidate_seed = 8;
  uint32_t num_candidates = 5000;
  std::vector<uint32_t> thread_counts = {1, 2, 4, 8};
  int repeats = 3;
};

TransactionDatabase MakeSweepDatabase(const ParallelSweepConfig& config) {
  QuestConfig gen;
  gen.num_items = config.num_items;
  gen.num_transactions = config.num_transactions;
  gen.avg_transaction_size = config.avg_transaction_size;
  gen.num_patterns = config.num_patterns;
  gen.seed = config.dataset_seed;
  StatusOr<TransactionDatabase> db = GenerateQuest(gen);
  OSSM_CHECK(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

std::vector<Itemset> MakeSweepCandidates(const ParallelSweepConfig& config) {
  Rng rng(config.candidate_seed);
  std::vector<Itemset> candidates;
  while (candidates.size() < config.num_candidates) {
    ItemId a = static_cast<ItemId>(rng.UniformInt(config.num_items));
    ItemId b = static_cast<ItemId>(rng.UniformInt(config.num_items - 1));
    if (b >= a) ++b;
    candidates.push_back({std::min(a, b), std::max(a, b)});
  }
  return candidates;
}

// One best-of-repeats timing of CountCandidates (tree build plus sharded
// scan) on `threads` workers; the unit the sweep below and the benchmark
// above both measure. `total` receives the sum of the counts, which must
// not depend on the thread count.
double TimeCountingPass(const TransactionDatabase& db,
                        std::span<const Itemset> candidates, uint32_t threads,
                        int repeats, uint64_t* total) {
  parallel::SetDefaultThreadCount(threads);
  double best = 1e100;
  for (int r = 0; r < repeats; ++r) {
    WallTimer timer;
    std::vector<uint64_t> counts = CountCandidates(db, candidates);
    double elapsed = timer.ElapsedSeconds();
    *total = std::accumulate(counts.begin(), counts.end(), uint64_t{0});
    if (elapsed < best) best = elapsed;
  }
  return best;
}

SegmentSupportMap MakeMap(uint32_t num_items, uint32_t num_segments,
                          uint64_t seed) {
  Rng rng(seed);
  std::vector<Segment> segments(num_segments);
  for (Segment& seg : segments) {
    seg.counts.resize(num_items);
    for (auto& c : seg.counts) c = rng.UniformInt(1000);
  }
  return SegmentSupportMap::FromSegments(std::span<const Segment>(segments));
}

void BM_UpperBoundPair(benchmark::State& state) {
  uint32_t segments = static_cast<uint32_t>(state.range(0));
  SegmentSupportMap map = MakeMap(1000, segments, 1);
  Rng rng(2);
  uint64_t sink = 0;
  for (auto _ : state) {
    ItemId a = static_cast<ItemId>(rng.UniformInt(1000));
    ItemId b = static_cast<ItemId>(rng.UniformInt(999));
    if (b >= a) ++b;
    sink += map.UpperBoundPair(a, b);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UpperBoundPair)->Arg(20)->Arg(40)->Arg(160)->Arg(640);

void BM_UpperBoundKItemset(benchmark::State& state) {
  size_t k = static_cast<size_t>(state.range(0));
  SegmentSupportMap map = MakeMap(1000, 100, 1);
  Rng rng(3);
  Itemset items(k);
  uint64_t sink = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < k; ++i) {
      items[i] = static_cast<ItemId>(rng.UniformInt(1000 - k) + i);
    }
    std::sort(items.begin(), items.end());
    sink += map.UpperBound(items);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UpperBoundKItemset)->Arg(3)->Arg(5)->Arg(10);

void BM_PairwiseOssub(benchmark::State& state) {
  uint32_t num_items = static_cast<uint32_t>(state.range(0));
  Rng rng(4);
  Segment a;
  Segment b;
  a.counts.resize(num_items);
  b.counts.resize(num_items);
  for (uint32_t i = 0; i < num_items; ++i) {
    a.counts[i] = rng.UniformInt(500);
    b.counts[i] = rng.UniformInt(500);
  }
  uint64_t sink = 0;
  for (auto _ : state) {
    sink += PairwiseOssub(a, b);
  }
  benchmark::DoNotOptimize(sink);
  // Items are the m(m-1)/2 item pairs one evaluation covers — the paper's
  // cost unit. The closed form reaches them through three sorts of m
  // counts, not a loop over the pairs.
  state.SetItemsProcessed(state.iterations() * num_items * (num_items - 1) /
                          2);
}
BENCHMARK(BM_PairwiseOssub)->Arg(100)->Arg(300)->Arg(1000);

void BM_PairwiseOssubBubble(benchmark::State& state) {
  uint32_t bubble_size = static_cast<uint32_t>(state.range(0));
  constexpr uint32_t kItems = 1000;
  Rng rng(5);
  Segment a;
  Segment b;
  a.counts.resize(kItems);
  b.counts.resize(kItems);
  for (uint32_t i = 0; i < kItems; ++i) {
    a.counts[i] = rng.UniformInt(500);
    b.counts[i] = rng.UniformInt(500);
  }
  std::vector<ItemId> bubble(bubble_size);
  for (uint32_t i = 0; i < bubble_size; ++i) {
    bubble[i] = i * (kItems / bubble_size);
  }
  uint64_t sink = 0;
  for (auto _ : state) {
    sink += PairwiseOssub(a, b, bubble);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * bubble_size *
                          (bubble_size - 1) / 2);
}
BENCHMARK(BM_PairwiseOssubBubble)->Arg(25)->Arg(100)->Arg(400);

void BM_ConfigurationFromCounts(benchmark::State& state) {
  uint32_t num_items = static_cast<uint32_t>(state.range(0));
  Rng rng(6);
  std::vector<uint64_t> counts(num_items);
  for (auto& c : counts) c = rng.UniformInt(1000);
  for (auto _ : state) {
    Configuration config =
        Configuration::FromCounts(std::span<const uint64_t>(counts));
    benchmark::DoNotOptimize(config);
  }
}
BENCHMARK(BM_ConfigurationFromCounts)->Arg(100)->Arg(1000);

void BM_HashTreeCounting(benchmark::State& state) {
  uint32_t num_candidates = static_cast<uint32_t>(state.range(0));
  QuestConfig gen;
  gen.num_items = 300;
  gen.num_transactions = 2000;
  gen.avg_transaction_size = 8;
  gen.num_patterns = 40;
  gen.seed = 7;  // explicit: the workload must not drift with the default
  StatusOr<TransactionDatabase> db = GenerateQuest(gen);
  OSSM_CHECK(db.ok());

  Rng rng(7);
  std::vector<Itemset> candidates;
  while (candidates.size() < num_candidates) {
    ItemId a = static_cast<ItemId>(rng.UniformInt(300));
    ItemId b = static_cast<ItemId>(rng.UniformInt(299));
    if (b >= a) ++b;
    candidates.push_back({std::min(a, b), std::max(a, b)});
  }

  parallel::SetDefaultThreadCount(1);
  for (auto _ : state) {
    std::vector<uint64_t> counts = CountCandidates(*db, candidates);
    benchmark::DoNotOptimize(counts.data());
  }
  // The quantity Figure 4 links to runtime: candidates counted per scan.
  state.SetItemsProcessed(state.iterations() * num_candidates);
}
BENCHMARK(BM_HashTreeCounting)->Arg(100)->Arg(1000)->Arg(10000);

// The Apriori counting pass in isolation: CountCandidates over one
// candidate set, sharded across `threads` workers. Arg(1) is the serial
// baseline the speedup targets are measured against.
void BM_ParallelHashTreeCounting(benchmark::State& state) {
  ParallelSweepConfig config;
  TransactionDatabase db = MakeSweepDatabase(config);
  std::vector<Itemset> candidates = MakeSweepCandidates(config);
  parallel::SetDefaultThreadCount(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    std::vector<uint64_t> counts = CountCandidates(db, candidates);
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetItemsProcessed(state.iterations() * db.num_transactions());
}
BENCHMARK(BM_ParallelHashTreeCounting)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Times the sharded counting pass at each thread count (best of `repeats`)
// and writes the sweep to BENCH_parallel.json as a canonical RunReport —
// the machine-checkable form of the Arg(1)-vs-Arg(4) comparison above.
// Phases are the per-thread-count wall clocks; values are the speedups
// relative to one thread; the one result, `count_total`, is the sum of
// all candidate counts, checked equal at every thread count.
void WriteParallelSweepJson(const char* path) {
  ParallelSweepConfig config;
  TransactionDatabase db = MakeSweepDatabase(config);
  std::vector<Itemset> candidates = MakeSweepCandidates(config);

  obs::RunReport report = obs::MakeRunReport("bench.parallel");
  report.SetWorkload("benchmark", "hash_tree_counting_pass");
  report.SetWorkload("transactions", config.num_transactions);
  report.SetWorkload("items", static_cast<uint64_t>(config.num_items));
  report.SetWorkload("candidates",
                     static_cast<uint64_t>(config.num_candidates));
  report.SetWorkload("dataset_seed", config.dataset_seed);
  report.SetWorkload("candidate_seed", config.candidate_seed);
  report.SetWorkload("repeats", static_cast<uint64_t>(config.repeats));

  double serial_seconds = 0.0;
  uint64_t serial_total = 0;
  for (uint32_t threads : config.thread_counts) {
    uint64_t total = 0;
    double best =
        TimeCountingPass(db, candidates, threads, config.repeats, &total);
    if (threads == 1) {
      serial_seconds = best;
      serial_total = total;
    }
    OSSM_CHECK(total == serial_total)
        << "counts at " << threads << " threads differ from one thread";
    report.AddPhaseSeconds("count_pass.t" + std::to_string(threads), best);
    report.AddValue("speedup.t" + std::to_string(threads),
                    serial_seconds / best);
    std::printf("  count pass, %u thread%s: %.6f s (speedup %.3f)\n",
                threads, threads == 1 ? "" : "s", best,
                serial_seconds / best);
  }
  report.AddResult("count_total", static_cast<double>(serial_total));

  report.metrics = obs::MetricsRegistry::Global().Snapshot();
  if (Status save = obs::SaveRunReportFile(report, path); !save.ok()) {
    std::fprintf(stderr, "error: %s\n", save.ToString().c_str());
    return;
  }
  std::printf("wrote run report to %s\n", path);
}

}  // namespace
}  // namespace ossm

int main(int argc, char** argv) {
  std::printf("threads: default pool %u (hardware_concurrency %u; override "
              "with OSSM_THREADS)\n",
              ossm::parallel::DefaultThreadCount(),
              std::thread::hardware_concurrency());
  ossm::obs::EnableMetricsCollection();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  ossm::WriteParallelSweepJson("BENCH_parallel.json");
  return 0;
}

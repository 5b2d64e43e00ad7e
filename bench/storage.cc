// Out-of-core storage engine: heap vs mmap on a dataset larger than RAM.
// The harness writes a FIMI text collection whose in-memory CSR footprint
// is a configurable multiple of a memory cap, then runs the full pipeline
// twice — load, OSSM build, Apriori, Eclat (bitmaps), batched serving —
// once per backend:
//   - mmap phase: OSSM_STORAGE=mmap equivalent (ScopedBackendForTest) with
//     RLIMIT_DATA clamped to VmData + --mem-cap-mb. Private anonymous
//     memory (the heap) cannot exceed the cap; the CSR and bitmap rows
//     live in MAP_SHARED page-store files, which the limit ignores — the
//     whole point of the storage engine.
//   - heap phase: the default std::vector backend, uncapped.
// The two phases must produce bit-identical mining results and serve
// answers (FNV-checksummed, OSSM_CHECK'd), demonstrating that the backend
// only moves bytes, never changes them. A final fork-based drive kills a
// StreamingIngest writer after an uncommitted Flush and verifies the store
// reopens on its committed prefix (crash_reopen_ok).
//
// Report: per-phase seconds plus perf/res deltas come from the ScopedPhase
// machinery (res.<phase>.minor_faults / major_faults are the paging
// story); heap_serve_qps, mmap_serve_qps and mmap_bytes_resident are
// measured values. The results (frequent_itemsets, mmap_bytes_mapped,
// mmap_live_stores, the enforced cap, and crash_reopen_ok and
// results_identical, which must stay 1) are the same on every run.
//
// The default (flagless) run auto-sizes the collection to
// --multiple x --mem-cap-mb, i.e. a dataset ~4x larger than the enforced
// memory budget. CI and make_baselines.sh pass --transactions to pin a
// seconds-scale smoke workload instead.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "core/ossm_builder.h"
#include "data/dataset_io.h"
#include "mining/apriori.h"
#include "mining/eclat.h"
#include "parallel/thread_pool.h"
#include "serve/query_engine.h"
#include "storage/ingest.h"
#include "storage/storage_env.h"

namespace ossm {
namespace {

using serve::QueryEngine;
using serve::QueryEngineConfig;
using serve::QueryResult;

constexpr uint64_t kFnvOffset = 1469598103934665603ull;

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFF;
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t ChecksumMining(const MiningResult& result) {
  uint64_t hash = kFnvOffset;
  hash = FnvMix(hash, result.itemsets.size());
  for (const FrequentItemset& itemset : result.itemsets) {
    hash = FnvMix(hash, itemset.items.size());
    for (ItemId item : itemset.items) hash = FnvMix(hash, item);
    hash = FnvMix(hash, itemset.support);
  }
  return hash;
}

// VmData from /proc/self/status, in bytes: the kernel's count of exactly
// what RLIMIT_DATA constrains (brk plus private writable mappings).
uint64_t ReadVmDataBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmData: %llu kB",
                    reinterpret_cast<unsigned long long*>(&kb)) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb << 10;
}

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

// Appends `db` to the text file and returns the heap-CSR bytes this chunk
// would cost (u64 offset per transaction + u32 per occurrence).
uint64_t AppendChunkAsText(std::FILE* f, const TransactionDatabase& db) {
  std::string buffer;
  buffer.reserve(1 << 20);
  char digits[16];
  for (uint64_t t = 0; t < db.num_transactions(); ++t) {
    bool first = true;
    for (ItemId item : db.transaction(t)) {
      if (!first) buffer.push_back(' ');
      first = false;
      int n = std::snprintf(digits, sizeof(digits), "%u", item);
      buffer.append(digits, static_cast<size_t>(n));
    }
    buffer.push_back('\n');
    if (buffer.size() > (1 << 20)) {
      std::fwrite(buffer.data(), 1, buffer.size(), f);
      buffer.clear();
    }
  }
  std::fwrite(buffer.data(), 1, buffer.size(), f);
  return db.num_transactions() * 8 + db.total_item_occurrences() * 4;
}

struct BackendOutcome {
  uint64_t apriori_checksum = 0;
  uint64_t eclat_checksum = 0;
  uint64_t serve_checksum = 0;
  uint64_t frequent_itemsets = 0;
  double serve_qps = 0.0;
};

// One full load → build → mine → serve pass under the given backend. The
// caller owns any RLIMIT_DATA clamp; everything allocated here dies before
// return so the phases are independent.
BackendOutcome RunBackend(bench::BenchReporter& reporter,
                          storage::Backend backend, const char* prefix,
                          const std::string& text_path, uint32_t num_items,
                          uint64_t min_support,
                          const std::vector<Itemset>& stream) {
  storage::ScopedBackendForTest scoped(backend);
  BackendOutcome outcome;
  std::string name(prefix);

  StatusOr<TransactionDatabase> loaded = [&] {
    bench::BenchReporter::ScopedPhase phase(reporter, name + "_load");
    return DatasetIo::LoadText(text_path, num_items);
  }();
  OSSM_CHECK(loaded.ok()) << loaded.status().ToString();
  TransactionDatabase db = std::move(loaded).value();

  // Keep the page-supports working set (pages x items) far below the cap
  // regardless of collection height.
  OssmBuildOptions build_options;
  build_options.algorithm = SegmentationAlgorithm::kRandom;
  build_options.target_segments = 32;
  build_options.transactions_per_page =
      std::max<uint64_t>(100, db.num_transactions() / 512);
  StatusOr<OssmBuildResult> build = [&] {
    bench::BenchReporter::ScopedPhase phase(reporter, name + "_build_map");
    return BuildOssm(db, build_options);
  }();
  OSSM_CHECK(build.ok()) << build.status().ToString();
  SegmentSupportMap map = std::move(build->map);

  AprioriConfig apriori_config;
  apriori_config.min_support_count = min_support;
  apriori_config.max_level = 2;
  StatusOr<MiningResult> apriori = [&] {
    bench::BenchReporter::ScopedPhase phase(reporter, name + "_apriori");
    return MineApriori(db, apriori_config);
  }();
  OSSM_CHECK(apriori.ok()) << apriori.status().ToString();
  outcome.apriori_checksum = ChecksumMining(*apriori);
  outcome.frequent_itemsets = apriori->itemsets.size();

  EclatConfig eclat_config;
  eclat_config.min_support_count = min_support;
  eclat_config.max_level = 2;
  eclat_config.representation = EclatRepresentation::kBitmaps;
  StatusOr<MiningResult> eclat = [&] {
    bench::BenchReporter::ScopedPhase phase(reporter, name + "_eclat");
    return MineEclat(db, eclat_config);
  }();
  OSSM_CHECK(eclat.ok()) << eclat.status().ToString();
  outcome.eclat_checksum = ChecksumMining(*eclat);
  OSSM_CHECK(outcome.eclat_checksum == outcome.apriori_checksum)
      << prefix << ": Eclat and Apriori disagree";

  QueryEngineConfig engine_config;
  engine_config.min_support = min_support;
  QueryEngine engine(&db, &map, engine_config);
  uint64_t serve_hash = kFnvOffset;
  double serve_seconds;
  {
    bench::BenchReporter::ScopedPhase phase(reporter, name + "_serve");
    WallTimer timer;
    constexpr size_t kWave = 64;
    for (size_t start = 0; start < stream.size(); start += kWave) {
      size_t end = std::min(start + kWave, stream.size());
      std::span<const Itemset> wave(stream.data() + start, end - start);
      StatusOr<std::vector<QueryResult>> results = engine.QueryBatch(wave);
      OSSM_CHECK(results.ok()) << results.status().ToString();
      for (const QueryResult& result : *results) {
        serve_hash = FnvMix(serve_hash, result.support);
        serve_hash = FnvMix(serve_hash, result.frequent ? 1 : 0);
      }
    }
    serve_seconds = timer.ElapsedSeconds();
  }
  outcome.serve_checksum = serve_hash;
  outcome.serve_qps = serve_seconds > 0
                          ? static_cast<double>(stream.size()) / serve_seconds
                          : 0;

  // Snapshot the mapped-store footprint while the stores are still alive
  // (heap runs report zeros — nothing is mapped).
  if (backend == storage::Backend::kMmap) {
    storage::PublishStorageGauges();
    uint64_t mapped = 0;
    uint64_t resident = 0;
    for (const storage::StoreInfo& store : storage::LiveStores()) {
      mapped += store.file_bytes;
      resident += store.resident_bytes;
    }
    reporter.AddResult("mmap_bytes_mapped", static_cast<double>(mapped));
    reporter.AddValue("mmap_bytes_resident", static_cast<double>(resident));
    reporter.AddResult(
        "mmap_live_stores",
        static_cast<double>(storage::LiveStores().size()));
  }
  return outcome;
}

// Kill-mid-append: a forked child commits 400 transactions, appends 150
// more, Flushes them to disk (sealed, synced, UNCOMMITTED) and exits
// without Commit — the on-disk image a SIGKILL'd writer leaves. The parent
// must reopen on exactly the committed prefix with exact supports.
bool CrashDriveReopensClean() {
  const std::string path = storage::StoreDir() + "/ossm-bench-crash-" +
                           std::to_string(::getpid()) + ".pgstore";
  std::filesystem::remove(path);
  constexpr uint32_t kItems = 64;
  constexpr uint32_t kSegments = 8;
  storage::StreamingIngest::Options options;
  options.page_size = 4096;
  auto transaction = [](uint64_t i) {
    // Deterministic, strictly increasing, 2-4 items.
    std::vector<ItemId> items;
    uint64_t state = i * 2654435761u + 17;
    ItemId item = static_cast<ItemId>(state % 7);
    for (uint64_t k = 0; k < 2 + i % 3 && item < kItems; ++k) {
      items.push_back(item);
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      item += 1 + static_cast<ItemId>(state % 9);
    }
    return items;
  };

  pid_t child = ::fork();
  if (child == 0) {
    auto ingest =
        storage::StreamingIngest::Create(path, kItems, kSegments, options);
    if (!ingest.ok()) ::_exit(1);
    for (uint64_t i = 0; i < 400; ++i) {
      std::vector<ItemId> items = transaction(i);
      if (!ingest->Append(items).ok()) ::_exit(2);
    }
    if (!ingest->Commit().ok()) ::_exit(3);
    for (uint64_t i = 400; i < 550; ++i) {
      std::vector<ItemId> items = transaction(i);
      if (!ingest->Append(items).ok()) ::_exit(4);
    }
    if (!ingest->Flush().ok()) ::_exit(5);
    ::_exit(0);  // the "kill": no Commit, no destructors
  }
  OSSM_CHECK(child > 0) << "fork failed";
  int wstatus = 0;
  OSSM_CHECK(::waitpid(child, &wstatus, 0) == child);
  OSSM_CHECK(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0)
      << "crash-drive child failed, status " << wstatus;

  auto reopened = storage::StreamingIngest::Open(path, options);
  bool ok = reopened.ok();
  if (ok) {
    ok = reopened->committed_transactions() == 400;
    std::vector<uint64_t> expected(kItems, 0);
    for (uint64_t i = 0; i < 400; ++i) {
      for (ItemId item : transaction(i)) expected[item]++;
    }
    for (ItemId item = 0; item < kItems && ok; ++item) {
      ok = reopened->map().Support(item) == expected[item];
    }
  }
  std::filesystem::remove(path);
  return ok;
}

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv,
                     {"scale", "seed", "transactions", "items", "mem-cap-mb",
                      "multiple", "threshold-permille", "queries", "report"});
  bench::BenchReporter reporter("storage", flags);
  uint64_t seed = flags.GetInt<uint64_t>("seed", 1);
  uint32_t num_items = flags.GetInt<uint32_t>("items", 200);
  uint64_t mem_cap_mb = flags.GetInt<uint64_t>("mem-cap-mb", 24);
  uint64_t multiple = flags.GetInt<uint64_t>("multiple", 4);
  uint64_t threshold_permille =
      flags.GetInt<uint64_t>("threshold-permille", 10);
  uint64_t num_queries = flags.GetInt<uint64_t>("queries", 4000);
  // 0 = auto-size the collection to `multiple` x the memory cap; CI and
  // the baselines pin a small count for a seconds-scale smoke.
  uint64_t fixed_transactions = flags.GetInt<uint64_t>("transactions", 0);

  const uint64_t cap_bytes = mem_cap_mb << 20;
  const uint64_t target_csr_bytes = multiple * cap_bytes;
  const std::string text_path = storage::StoreDir() + "/ossm-bench-storage-" +
                                std::to_string(::getpid()) + ".txt";

  // Write the collection chunk-at-a-time so the harness itself never holds
  // the full CSR while generating (the point is to exceed the cap).
  uint64_t num_transactions = 0;
  uint64_t csr_bytes = 0;
  {
    bench::BenchReporter::ScopedPhase phase(reporter, "generate");
    std::FILE* f = std::fopen(text_path.c_str(), "wb");
    OSSM_CHECK(f != nullptr) << "cannot create " << text_path;
    constexpr uint64_t kChunk = 100000;
    uint64_t chunk_index = 0;
    while (fixed_transactions != 0 ? num_transactions < fixed_transactions
                                   : csr_bytes < target_csr_bytes) {
      uint64_t count =
          fixed_transactions != 0
              ? std::min(kChunk, fixed_transactions - num_transactions)
              : kChunk;
      TransactionDatabase chunk = bench::RegularSynthetic(
          count, num_items, seed + 7919 * chunk_index++);
      csr_bytes += AppendChunkAsText(f, chunk);
      num_transactions += count;
    }
    std::fclose(f);
  }
  const uint64_t text_bytes = std::filesystem::file_size(text_path);
  const uint64_t min_support =
      std::max<uint64_t>(1, num_transactions * threshold_permille / 1000);

  std::printf(
      "Out-of-core storage: heap vs mmap, %llu transactions, %u items\n"
      "in-memory CSR ~%.1f MB, cap %llu MB (%s), threshold %.1f%%\n\n",
      static_cast<unsigned long long>(num_transactions), num_items,
      static_cast<double>(csr_bytes) / (1 << 20),
      static_cast<unsigned long long>(mem_cap_mb),
      fixed_transactions == 0 ? "dataset auto-sized to multiple x cap"
                              : "smoke: fixed transaction count",
      static_cast<double>(threshold_permille) / 10.0);

  reporter.SetWorkload("transactions", num_transactions);
  reporter.SetWorkload("items", static_cast<uint64_t>(num_items));
  reporter.SetWorkload("mem_cap_mb", mem_cap_mb);
  reporter.SetWorkload("multiple", multiple);
  reporter.SetWorkload("threshold_permille", threshold_permille);
  reporter.SetWorkload("queries", num_queries);
  reporter.SetWorkload("seed", seed);
  reporter.SetWorkload("csr_bytes", csr_bytes);
  reporter.SetWorkload("text_bytes", text_bytes);
  reporter.SetWorkload("auto_sized",
                       fixed_transactions == 0 ? uint64_t{1} : uint64_t{0});

  // The query stream is drawn once and replayed against both backends.
  std::vector<Itemset> stream;
  stream.reserve(num_queries);
  {
    Rng rng(seed * 104729 + 5);
    for (uint64_t q = 0; q < num_queries; ++q) {
      stream.push_back(RandomItemset(rng, num_items));
    }
  }

  // Warm the worker pool BEFORE clamping RLIMIT_DATA: thread stacks are
  // private anonymous memory, so late spawns would charge the cap.
  parallel::DefaultPool().ParallelFor(0, 1024,
                                      [](uint32_t, uint64_t, uint64_t) {});

  // mmap phase first, in a near-pristine heap: RLIMIT_DATA is a delta cap
  // on top of the current VmData, so allocator retention from an earlier
  // phase can neither hide allocations nor tighten the budget.
  struct rlimit saved;
  OSSM_CHECK(::getrlimit(RLIMIT_DATA, &saved) == 0);
  struct rlimit capped = saved;
  capped.rlim_cur = ReadVmDataBytes() + cap_bytes;
  if (saved.rlim_max != RLIM_INFINITY && capped.rlim_cur > saved.rlim_max) {
    capped.rlim_cur = saved.rlim_max;
  }
  OSSM_CHECK(::setrlimit(RLIMIT_DATA, &capped) == 0);
  reporter.AddResult("mem_cap_enforced_bytes",
                     static_cast<double>(cap_bytes));
  BackendOutcome mmap_outcome =
      RunBackend(reporter, storage::Backend::kMmap, "mmap", text_path,
                 num_items, min_support, stream);
  OSSM_CHECK(::setrlimit(RLIMIT_DATA, &saved) == 0);

  BackendOutcome heap_outcome =
      RunBackend(reporter, storage::Backend::kHeap, "heap", text_path,
                 num_items, min_support, stream);

  OSSM_CHECK(heap_outcome.apriori_checksum == mmap_outcome.apriori_checksum)
      << "Apriori results differ across backends";
  OSSM_CHECK(heap_outcome.eclat_checksum == mmap_outcome.eclat_checksum)
      << "Eclat results differ across backends";
  OSSM_CHECK(heap_outcome.serve_checksum == mmap_outcome.serve_checksum)
      << "serve answers differ across backends";

  bool crash_ok = CrashDriveReopensClean();
  OSSM_CHECK(crash_ok) << "crash-safe ingest drive failed";

  std::filesystem::remove(text_path);

  std::printf(
      "frequent itemsets (level <= 2): %llu, identical across backends\n"
      "serve_qps: heap %.0f, mmap %.0f\n"
      "crash drive: committed prefix reopened clean\n",
      static_cast<unsigned long long>(heap_outcome.frequent_itemsets),
      heap_outcome.serve_qps, mmap_outcome.serve_qps);

  reporter.AddResult("frequent_itemsets",
                     static_cast<double>(heap_outcome.frequent_itemsets));
  reporter.AddValue("heap_serve_qps", heap_outcome.serve_qps);
  reporter.AddValue("mmap_serve_qps", mmap_outcome.serve_qps);
  reporter.AddResult("results_identical", 1.0);
  reporter.AddResult("crash_reopen_ok", crash_ok ? 1.0 : 0.0);
  return reporter.Finish();
}

}  // namespace
}  // namespace ossm

int main(int argc, char** argv) { return ossm::Run(argc, argv); }

// ossm_cli — command-line front end for the library.
//
//   ossm_cli gen     --kind=quest|skewed|alarm --out=FILE [shape flags]
//   ossm_cli build   --data=FILE --out=MAP [--algorithm=... --segments=N ...]
//   ossm_cli mine    --data=FILE [--ossm=MAP] [--miner=...] [--threshold=F]
//   ossm_cli rules   --data=FILE [--threshold=F --confidence=F]
//   ossm_cli inspect --data=FILE | --ossm=MAP
//   ossm_cli info    [--data=FILE]   (kernel ISA level, bitmap footprint)
//   ossm_cli serve   --data=FILE [--ossm=MAP --threshold=F --port=N ...]
//   ossm_cli query   --port=N [--host=ADDR --check-data=FILE]  (stdin)
//   ossm_cli top     --port=N [--host=ADDR --interval-ms=N ...]  (dashboard)
//
// Datasets are FIMI text (one transaction per line) when the path ends in
// .txt, binary otherwise. Run any subcommand with --help for its flags.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "core/ossm_builder.h"
#include "core/ossm_io.h"
#include "core/theory.h"
#include "data/bitmap_index.h"
#include "data/dataset_io.h"
#include "kernels/kernels.h"
#include "datagen/alarm_generator.h"
#include "datagen/quest_generator.h"
#include "datagen/skewed_generator.h"
#include "mining/apriori.h"
#include "mining/association_rules.h"
#include "mining/candidate_pruner.h"
#include "mining/deduction_rules.h"
#include "mining/depth_project.h"
#include "mining/dhp.h"
#include "mining/eclat.h"
#include "mining/fp_growth.h"
#include "mining/mining_result.h"
#include "mining/ndi.h"
#include "mining/partition.h"
#include "serve/batcher.h"
#include "storage/storage_env.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/telemetry.h"

namespace ossm {
namespace {

// ---- flag plumbing ----

class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        std::exit(2);
      }
      size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  uint64_t GetInt(const std::string& key, uint64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : std::strtod(it->second.c_str(), nullptr);
  }
  std::string GetRequired(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end() || it->second.empty()) {
      std::fprintf(stderr, "missing required flag --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }

 private:
  std::map<std::string, std::string> values_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

bool IsTextPath(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".txt") == 0;
}

StatusOr<TransactionDatabase> LoadDataset(const std::string& path) {
  return IsTextPath(path) ? DatasetIo::LoadText(path)
                          : DatasetIo::LoadBinary(path);
}

Status SaveDataset(const TransactionDatabase& db, const std::string& path) {
  return IsTextPath(path) ? DatasetIo::SaveText(db, path)
                          : DatasetIo::SaveBinary(db, path);
}

StatusOr<SegmentationAlgorithm> ParseAlgorithm(const std::string& name) {
  if (name == "random") return SegmentationAlgorithm::kRandom;
  if (name == "rc") return SegmentationAlgorithm::kRc;
  if (name == "greedy") return SegmentationAlgorithm::kGreedy;
  if (name == "random-rc") return SegmentationAlgorithm::kRandomRc;
  if (name == "random-greedy") return SegmentationAlgorithm::kRandomGreedy;
  return Status::InvalidArgument(
      "unknown algorithm '" + name +
      "' (random, rc, greedy, random-rc, random-greedy)");
}

// ---- subcommands ----

int CmdGen(const Args& args) {
  if (args.Has("help")) {
    std::puts(
        "gen --kind=quest|skewed|alarm --out=FILE\n"
        "    --items=N --transactions=N --seed=N\n"
        "  quest:  --txn-size=F --pattern-size=F --patterns=N\n"
        "          --corruption=F --seasons=N --boost=F\n"
        "  skewed: --txn-size=F --seasons=N --boost=F\n"
        "  alarm:  --windows=N --rate=F --episodes=N");
    return 0;
  }
  std::string kind = args.GetRequired("kind");
  std::string out = args.GetRequired("out");

  StatusOr<TransactionDatabase> db = Status::Unimplemented("");
  if (kind == "quest") {
    QuestConfig config;
    config.num_items = static_cast<uint32_t>(args.GetInt("items", 400));
    config.num_transactions = args.GetInt("transactions", 20000);
    config.avg_transaction_size =
        args.GetDouble("txn-size", config.num_items / 100.0);
    config.avg_pattern_size = args.GetDouble("pattern-size", 3.0);
    config.num_patterns =
        static_cast<uint32_t>(args.GetInt("patterns", config.num_items));
    config.corruption_mean = args.GetDouble("corruption", 0.25);
    config.num_seasons = static_cast<uint32_t>(args.GetInt("seasons", 1));
    config.in_season_boost = args.GetDouble("boost", 1.0);
    config.seed = args.GetInt("seed", 1);
    db = GenerateQuest(config);
  } else if (kind == "skewed") {
    SkewedConfig config;
    config.num_items = static_cast<uint32_t>(args.GetInt("items", 400));
    config.num_transactions = args.GetInt("transactions", 20000);
    config.avg_transaction_size =
        args.GetDouble("txn-size", config.num_items / 100.0);
    config.num_seasons = static_cast<uint32_t>(args.GetInt("seasons", 2));
    config.in_season_boost = args.GetDouble("boost", 8.0);
    config.seed = args.GetInt("seed", 1);
    db = GenerateSkewed(config);
  } else if (kind == "alarm") {
    AlarmConfig config;
    config.num_alarm_types = static_cast<uint32_t>(args.GetInt("items", 200));
    config.num_windows = args.GetInt("windows", 5000);
    config.background_rate = args.GetDouble("rate", 3.0);
    config.num_episode_kinds =
        static_cast<uint32_t>(args.GetInt("episodes", 25));
    config.seed = args.GetInt("seed", 1);
    db = GenerateAlarms(config);
  } else {
    std::fprintf(stderr, "unknown --kind=%s (quest, skewed, alarm)\n",
                 kind.c_str());
    return 2;
  }
  if (!db.ok()) return Fail(db.status());
  if (Status save = SaveDataset(*db, out); !save.ok()) return Fail(save);
  std::printf("wrote %llu transactions over %u items to %s\n",
              static_cast<unsigned long long>(db->num_transactions()),
              db->num_items(), out.c_str());
  return 0;
}

// Writes a RunReport for a subcommand: workload identity and phase timings
// from the caller, metrics snapshotted from the global registry (collection
// was enabled up front when --report was passed).
int WriteCliReport(obs::RunReport report, const std::string& path) {
  report.metrics = obs::MetricsRegistry::Global().Snapshot();
  if (Status save = obs::SaveRunReportFile(report, path); !save.ok()) {
    return Fail(save);
  }
  std::printf("wrote run report to %s\n", path.c_str());
  return 0;
}

int CmdBuild(const Args& args) {
  if (args.Has("help")) {
    std::puts(
        "build --data=FILE --out=MAP\n"
        "      --algorithm=random|rc|greedy|random-rc|random-greedy\n"
        "      --segments=N --page=N --intermediate=N\n"
        "      --bubble=FRACTION --bubble-threshold=F --seed=N\n"
        "      --report=FILE   write a RunReport JSON next to the map");
    return 0;
  }
  if (args.Has("report")) obs::EnableMetricsCollection();
  WallTimer load_timer;
  StatusOr<TransactionDatabase> db = LoadDataset(args.GetRequired("data"));
  if (!db.ok()) return Fail(db.status());
  double load_seconds = load_timer.ElapsedSeconds();

  StatusOr<SegmentationAlgorithm> algorithm =
      ParseAlgorithm(args.Get("algorithm", "random-greedy"));
  if (!algorithm.ok()) return Fail(algorithm.status());

  OssmBuildOptions options;
  options.algorithm = *algorithm;
  options.target_segments = args.GetInt("segments", 40);
  options.transactions_per_page = args.GetInt("page", 100);
  options.intermediate_segments = args.GetInt("intermediate", 200);
  options.bubble_fraction = args.GetDouble("bubble", 0.0);
  options.bubble_threshold = args.GetDouble("bubble-threshold", 0.0025);
  options.seed = args.GetInt("seed", 1);

  StatusOr<OssmBuildResult> build = BuildOssm(*db, options);
  if (!build.ok()) return Fail(build.status());
  std::string out = args.GetRequired("out");
  if (Status save = OssmIo::Save(build->map, out); !save.ok()) {
    return Fail(save);
  }
  std::printf(
      "built %u-segment OSSM (%s) in %.3f s (%llu ossub evals), %.1f KB "
      "-> %s\n",
      build->map.num_segments(),
      std::string(SegmentationAlgorithmName(*algorithm)).c_str(),
      build->stats.seconds,
      static_cast<unsigned long long>(build->stats.ossub_evaluations),
      build->map.MemoryFootprintBytes() / 1024.0, out.c_str());

  if (args.Has("report")) {
    obs::RunReport report = obs::MakeRunReport("ossm_cli.build");
    report.SetWorkload("dataset", args.Get("data", ""));
    report.SetWorkload("segmenter",
                       std::string(SegmentationAlgorithmName(*algorithm)));
    report.SetWorkload("segments", options.target_segments);
    report.SetWorkload("page", options.transactions_per_page);
    report.SetWorkload("seed", options.seed);
    report.AddPhaseSeconds("load", load_seconds);
    report.AddPhaseSeconds("build", build->stats.seconds);
    report.AddValue("ossub_evaluations",
                    static_cast<double>(build->stats.ossub_evaluations));
    report.AddValue("footprint_kb",
                    build->map.MemoryFootprintBytes() / 1024.0);
    return WriteCliReport(std::move(report), args.Get("report", ""));
  }
  return 0;
}

int CmdMine(const Args& args) {
  if (args.Has("help")) {
    std::puts(
        "mine --data=FILE [--ossm=MAP]\n"
        "     --miner=apriori|dhp|partition|fpgrowth|depthproject|eclat|ndi\n"
        "     --pruner=none|ossm|ndi|combined\n"
        "                     candidate bound source; `ossm` (the default\n"
        "                     with --ossm) uses equation (1) alone, `ndi`\n"
        "                     the deduction rules alone, `combined` fuses\n"
        "                     both (min of the upper bounds + derivation)\n"
        "     --ndi-depth=N   deduction-rule depth limit (0 = unlimited;\n"
        "                     default 3 for --pruner, 0 for --miner=ndi)\n"
        "     --threshold=FRACTION --max-level=N --top=N\n"
        "     --report=FILE   write a RunReport JSON (env, workload,\n"
        "                     phases, per-level counters)\n"
        "  --miner=ndi mines the condensed non-derivable representation\n"
        "  instead of all frequent itemsets.");
    return 0;
  }
  if (args.Has("report")) obs::EnableMetricsCollection();
  WallTimer load_timer;
  StatusOr<TransactionDatabase> db = LoadDataset(args.GetRequired("data"));
  if (!db.ok()) return Fail(db.status());
  double load_seconds = load_timer.ElapsedSeconds();

  SegmentSupportMap map;
  OssmPruner pruner(&map);
  const CandidatePruner* ossm_ptr = nullptr;
  if (args.Has("ossm")) {
    StatusOr<SegmentSupportMap> loaded = OssmIo::Load(args.Get("ossm", ""));
    if (!loaded.ok()) return Fail(loaded.status());
    map = std::move(*loaded);
    if (map.num_items() != db->num_items()) {
      return Fail(Status::InvalidArgument(
          "OSSM item domain does not match the dataset"));
    }
    ossm_ptr = &pruner;
  }

  double threshold = args.GetDouble("threshold", 0.01);
  uint32_t max_level = static_cast<uint32_t>(args.GetInt("max-level", 0));
  std::string miner = args.Get("miner", "apriori");
  uint32_t ndi_depth = static_cast<uint32_t>(args.GetInt("ndi-depth", 3));

  // Resolve the candidate bound source. "combined" and "ndi" wrap the
  // deduction-rule engine (with or without an equation-(1) base) in the
  // interval interface; miners wired for observation feed exact supports
  // back into it as levels complete.
  std::string pruner_kind =
      args.Get("pruner", ossm_ptr != nullptr ? "ossm" : "none");
  CombinedPruner combined(pruner_kind == "combined" ? ossm_ptr : nullptr,
                          db->num_transactions(), ndi_depth);
  const CandidatePruner* pruner_ptr = nullptr;
  if (pruner_kind == "none") {
    pruner_ptr = nullptr;
  } else if (pruner_kind == "ossm") {
    if (ossm_ptr == nullptr) {
      return Fail(Status::InvalidArgument(
          "--pruner=ossm needs an --ossm=MAP to load the bound from"));
    }
    pruner_ptr = ossm_ptr;
  } else if (pruner_kind == "ndi" || pruner_kind == "combined") {
    pruner_ptr = &combined;
  } else {
    std::fprintf(stderr, "unknown --pruner=%s (none, ossm, ndi, combined)\n",
                 pruner_kind.c_str());
    return 2;
  }

  StatusOr<MiningResult> result = Status::Unimplemented("");
  if (miner == "apriori") {
    AprioriConfig config;
    config.min_support_fraction = threshold;
    config.max_level = max_level;
    config.pruner = pruner_ptr;
    result = MineApriori(*db, config);
  } else if (miner == "dhp") {
    DhpConfig config;
    config.min_support_fraction = threshold;
    config.max_level = max_level;
    config.pruner = pruner_ptr;
    result = MineDhp(*db, config);
  } else if (miner == "partition") {
    PartitionConfig config;
    config.min_support_fraction = threshold;
    config.max_level = max_level;
    config.use_ossm = pruner_ptr != nullptr;
    result = MinePartition(*db, config);
  } else if (miner == "fpgrowth") {
    FpGrowthConfig config;
    config.min_support_fraction = threshold;
    config.max_level = max_level;
    result = MineFpGrowth(*db, config);
  } else if (miner == "depthproject") {
    DepthProjectConfig config;
    config.min_support_fraction = threshold;
    config.max_level = max_level;
    config.pruner = pruner_ptr;
    result = MineDepthProject(*db, config);
  } else if (miner == "eclat") {
    EclatConfig config;
    config.min_support_fraction = threshold;
    config.max_level = max_level;
    config.pruner = pruner_ptr;
    result = MineEclat(*db, config);
  } else if (miner == "ndi") {
    NdiConfig config;
    config.min_support_fraction = threshold;
    config.max_level = max_level;
    config.max_depth = static_cast<uint32_t>(args.GetInt("ndi-depth", 0));
    // The NDI miner runs its own deduction rules; the equation-(1) bound
    // (when an --ossm is loaded) rides along as the cheap first filter.
    config.pruner = ossm_ptr;
    result = MineNdi(*db, config);
  } else {
    std::fprintf(stderr,
                 "unknown --miner=%s (apriori, dhp, partition, fpgrowth, "
                 "depthproject, eclat, ndi)\n",
                 miner.c_str());
    return 2;
  }
  if (!result.ok()) return Fail(result.status());

  if (miner == "ndi") {
    std::printf(
        "%zu non-derivable frequent itemsets (condensed representation) in "
        "%.3f s (%llu candidates counted, %llu pruned by bounds, %llu "
        "derivable skipped)\n",
        result->itemsets.size(), result->stats.total_seconds,
        static_cast<unsigned long long>(
            result->stats.TotalCandidatesCounted()),
        static_cast<unsigned long long>(result->stats.TotalPrunedByBound()),
        static_cast<unsigned long long>(
            result->stats.TotalDerivedWithoutCounting()));
  } else {
    std::printf(
        "%zu frequent itemsets in %.3f s (%llu candidates counted, %llu "
        "pruned by bounds, %llu derived without counting)\n",
        result->itemsets.size(), result->stats.total_seconds,
        static_cast<unsigned long long>(
            result->stats.TotalCandidatesCounted()),
        static_cast<unsigned long long>(result->stats.TotalPrunedByBound()),
        static_cast<unsigned long long>(
            result->stats.TotalDerivedWithoutCounting()));
  }

  uint64_t top = args.GetInt("top", 20);
  uint64_t shown = 0;
  for (const FrequentItemset& f : result->itemsets) {
    if (f.items.size() < 2) continue;
    if (shown++ >= top) break;
    std::printf("  {");
    for (size_t i = 0; i < f.items.size(); ++i) {
      std::printf("%s%u", i ? ", " : "", f.items[i]);
    }
    std::printf("}  support %llu\n",
                static_cast<unsigned long long>(f.support));
  }

  if (args.Has("report")) {
    obs::RunReport report = obs::MakeRunReport("ossm_cli.mine");
    report.SetWorkload("dataset", args.Get("data", ""));
    report.SetWorkload("miner", miner);
    report.SetWorkload("pruner", pruner_kind);
    report.SetWorkload("threshold", threshold);
    report.SetWorkload("max_level", static_cast<uint64_t>(max_level));
    report.SetWorkload("ossm",
                       args.Has("ossm") ? args.Get("ossm", "") : "none");
    report.AddPhaseSeconds("load", load_seconds);
    report.AddPhaseSeconds("mine", result->stats.total_seconds);
    report.AddValue("frequent_itemsets",
                    static_cast<double>(result->itemsets.size()));
    report.AddValue(
        "candidates_counted",
        static_cast<double>(result->stats.TotalCandidatesCounted()));
    report.AddValue("pruned_by_bound",
                    static_cast<double>(result->stats.TotalPrunedByBound()));
    report.AddValue(
        "eliminated_by_ossm",
        static_cast<double>(result->stats.TotalEliminatedByOssm()));
    report.AddValue(
        "eliminated_by_ndi",
        static_cast<double>(result->stats.TotalEliminatedByNdi()));
    report.AddValue(
        "derived_without_counting",
        static_cast<double>(result->stats.TotalDerivedWithoutCounting()));
    return WriteCliReport(std::move(report), args.Get("report", ""));
  }
  return 0;
}

int CmdRules(const Args& args) {
  if (args.Has("help")) {
    std::puts(
        "rules --data=FILE [--ossm=MAP] --threshold=F --confidence=F "
        "--top=N");
    return 0;
  }
  StatusOr<TransactionDatabase> db = LoadDataset(args.GetRequired("data"));
  if (!db.ok()) return Fail(db.status());

  AprioriConfig mining;
  mining.min_support_fraction = args.GetDouble("threshold", 0.01);
  SegmentSupportMap map;
  OssmPruner pruner(&map);
  if (args.Has("ossm")) {
    StatusOr<SegmentSupportMap> loaded = OssmIo::Load(args.Get("ossm", ""));
    if (!loaded.ok()) return Fail(loaded.status());
    map = std::move(*loaded);
    mining.pruner = &pruner;
  }
  StatusOr<MiningResult> mined = MineApriori(*db, mining);
  if (!mined.ok()) return Fail(mined.status());

  RuleConfig config;
  config.min_confidence = args.GetDouble("confidence", 0.5);
  StatusOr<std::vector<AssociationRule>> rules =
      GenerateRules(mined->itemsets, db->num_transactions(), config);
  if (!rules.ok()) return Fail(rules.status());

  std::printf("%zu rules at confidence >= %.2f\n", rules->size(),
              config.min_confidence);
  uint64_t top = args.GetInt("top", 20);
  for (size_t r = 0; r < rules->size() && r < top; ++r) {
    const AssociationRule& rule = (*rules)[r];
    std::printf("  {");
    for (size_t i = 0; i < rule.antecedent.size(); ++i) {
      std::printf("%s%u", i ? ", " : "", rule.antecedent[i]);
    }
    std::printf("} => {");
    for (size_t i = 0; i < rule.consequent.size(); ++i) {
      std::printf("%s%u", i ? ", " : "", rule.consequent[i]);
    }
    std::printf("}  conf %.3f  lift %.2f  sup %llu\n", rule.confidence,
                rule.lift, static_cast<unsigned long long>(rule.support));
  }
  return 0;
}

int CmdInspect(const Args& args) {
  if (args.Has("help")) {
    std::puts("inspect --data=FILE | --ossm=MAP");
    return 0;
  }
  if (args.Has("data")) {
    StatusOr<TransactionDatabase> db = LoadDataset(args.Get("data", ""));
    if (!db.ok()) return Fail(db.status());
    std::vector<uint64_t> supports = db->ComputeItemSupports();
    uint64_t max_support = 0;
    uint64_t nonzero = 0;
    for (uint64_t s : supports) {
      max_support = std::max(max_support, s);
      nonzero += s > 0 ? 1 : 0;
    }
    std::printf(
        "dataset: %llu transactions, %u items (%llu occurring), avg "
        "transaction %.2f items, hottest item support %llu\n",
        static_cast<unsigned long long>(db->num_transactions()),
        db->num_items(), static_cast<unsigned long long>(nonzero),
        static_cast<double>(db->total_item_occurrences()) /
            static_cast<double>(db->num_transactions()),
        static_cast<unsigned long long>(max_support));
    std::printf("theoretical exact-OSSM cap (2^m - m): %llu segments\n",
                static_cast<unsigned long long>(
                    ConfigurationSpaceSize(db->num_items())));
    return 0;
  }
  if (args.Has("ossm")) {
    StatusOr<SegmentSupportMap> map = OssmIo::Load(args.Get("ossm", ""));
    if (!map.ok()) return Fail(map.status());
    std::printf("OSSM: %u items x %u segments, %.1f KB\n", map->num_items(),
                map->num_segments(), map->MemoryFootprintBytes() / 1024.0);
    return 0;
  }
  std::fprintf(stderr, "inspect needs --data=FILE or --ossm=MAP\n");
  return 2;
}

int CmdInfo(const Args& args) {
  if (args.Has("help")) {
    std::puts(
        "info [--data=FILE]\n"
        "prints the dispatched kernel ISA level, the active storage\n"
        "backend, and, with --data, the vertical bitmap index footprint\n"
        "for that dataset's shape plus per-store mapped/resident bytes");
    return 0;
  }
  std::printf("kernel ISA: %s (active)\n",
              std::string(kernels::IsaName(kernels::ActiveIsa())).c_str());
  std::printf("supported levels:");
  for (kernels::Isa isa : kernels::SupportedIsas()) {
    std::printf(" %s", std::string(kernels::IsaName(isa)).c_str());
  }
  std::printf("\noverride with OSSM_SIMD=scalar|avx2|native\n");
  std::printf("storage backend: %s (override with OSSM_STORAGE=heap|mmap)\n",
              storage::BackendName(storage::ActiveBackend()));

  if (args.Has("data")) {
    StatusOr<TransactionDatabase> db = LoadDataset(args.Get("data", ""));
    if (!db.ok()) return Fail(db.status());
    uint64_t bitmap_bytes = BitmapIndex::FootprintBytesFor(
        db->num_items(), db->num_transactions());
    uint64_t csr_bytes =
        db->total_item_occurrences() * sizeof(ItemId) +
        (db->num_transactions() + 1) * sizeof(uint64_t);
    // Mirrors QueryEngine's BitmapMode::kAuto rule.
    bool auto_bitmaps = bitmap_bytes <= 4 * csr_bytes;
    std::printf(
        "dataset: %llu transactions, %u items\n"
        "CSR store: %.1f KB; vertical bitmap index: %.1f KB (%.2fx)\n"
        "serve tier-3 auto mode would use: %s\n",
        static_cast<unsigned long long>(db->num_transactions()),
        db->num_items(), csr_bytes / 1024.0, bitmap_bytes / 1024.0,
        static_cast<double>(bitmap_bytes) /
            static_cast<double>(std::max<uint64_t>(csr_bytes, 1)),
        auto_bitmaps ? "bitmap index" : "CSR scan");
    // Under OSSM_STORAGE=mmap the CSR just loaded lives in a mapped store;
    // show where the bytes actually are (mapped file size vs resident).
    for (const storage::StoreInfo& info : storage::LiveStores()) {
      std::printf(
          "mapped store %s: %.1f KB file (%llu-byte pages), "
          "%.1f KB resident\n",
          info.path.c_str(), info.file_bytes / 1024.0,
          static_cast<unsigned long long>(info.page_size),
          info.resident_bytes / 1024.0);
    }
  }
  return 0;
}

// ---- serving ----

int CmdServe(const Args& args) {
  if (args.Has("help")) {
    std::puts(
        "serve --data=FILE [--ossm=MAP]\n"
        "      --threshold=FRACTION   minsup fraction for the bound screen\n"
        "      --bind=ADDR --port=N   0 picks an ephemeral port\n"
        "      --port-file=FILE       write the bound port (for scripts)\n"
        "      --max-batch=N          most exact counts per wave: whenever\n"
        "                             the dispatcher is free it takes all\n"
        "                             that are pending, up to N (no timer);\n"
        "                             bound rejects, singletons and cache\n"
        "                             hits answer at once, unbatched\n"
        "      --max-queue=N          pending queries before backpressure\n"
        "      --cache-capacity=N --shards=N\n"
        "      --max-connections=N --max-items=N --drain-timeout-ms=N\n"
        "serving telemetry is always on: STATS gains queue_* keys, METRICS\n"
        "returns Prometheus exposition, SLOWLOG the slow-query tail\n"
        "(threshold OSSM_SLOWLOG_US, default 10000).\n"
        "SIGTERM/SIGINT drain in-flight queries, then exit 0.");
    return 0;
  }
  StatusOr<TransactionDatabase> db = LoadDataset(args.GetRequired("data"));
  if (!db.ok()) return Fail(db.status());
  StatusOr<uint64_t> min_support = MinSupportCount(
      args.GetDouble("threshold", 0.01), 0, db->num_transactions());
  if (!min_support.ok()) return Fail(min_support.status());

  SegmentSupportMap map;
  bool has_map = args.Has("ossm");
  if (has_map) {
    StatusOr<SegmentSupportMap> loaded = OssmIo::Load(args.Get("ossm", ""));
    if (!loaded.ok()) return Fail(loaded.status());
    map = std::move(*loaded);
    if (map.num_items() != db->num_items()) {
      return Fail(Status::InvalidArgument(
          "OSSM item domain does not match the dataset"));
    }
  }

  // One telemetry instance behind the whole stack (engine tiers, batcher
  // queue, server verbs); threshold from OSSM_SLOWLOG_US.
  serve::ServeTelemetry telemetry;

  serve::QueryEngineConfig engine_config;
  engine_config.min_support = *min_support;
  engine_config.cache_capacity = args.GetInt("cache-capacity", 1 << 16);
  engine_config.cache_shards =
      static_cast<uint32_t>(args.GetInt("shards", 16));
  engine_config.telemetry = &telemetry;
  serve::QueryEngine engine(&*db, has_map ? &map : nullptr, engine_config);

  serve::BatcherConfig batcher_config;
  batcher_config.max_batch =
      static_cast<uint32_t>(args.GetInt("max-batch", 64));
  batcher_config.max_queue =
      static_cast<uint32_t>(args.GetInt("max-queue", 4096));
  batcher_config.telemetry = &telemetry;
  serve::Batcher batcher(&engine, batcher_config);

  serve::ServerConfig server_config;
  server_config.telemetry = &telemetry;
  server_config.bind_address = args.Get("bind", "127.0.0.1");
  server_config.port = static_cast<uint16_t>(args.GetInt("port", 0));
  server_config.max_connections =
      static_cast<uint32_t>(args.GetInt("max-connections", 256));
  server_config.max_items_per_query =
      static_cast<uint32_t>(args.GetInt("max-items", 256));
  server_config.drain_timeout_ms =
      static_cast<uint32_t>(args.GetInt("drain-timeout-ms", 5000));

  // Block the stop signals before any thread exists so every thread
  // inherits the mask and only the sigwait below ever sees them.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGTERM);
  sigaddset(&stop_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  serve::SupportServer server(&engine, &batcher, server_config);
  if (Status started = server.Start(); !started.ok()) return Fail(started);

  if (args.Has("port-file")) {
    FILE* f = std::fopen(args.Get("port-file", "").c_str(), "w");
    if (f == nullptr) {
      return Fail(Status::IOError("cannot write port file"));
    }
    std::fprintf(f, "%u\n", server.port());
    std::fclose(f);
  }
  std::printf("serving %s on %s:%u (minsup %llu, %s)\n",
              args.Get("data", "").c_str(),
              server_config.bind_address.c_str(), server.port(),
              static_cast<unsigned long long>(engine.min_support()),
              has_map ? "OSSM screen on" : "no OSSM screen");
  std::fflush(stdout);

  int signal_number = 0;
  sigwait(&stop_signals, &signal_number);
  std::printf("received %s, draining\n",
              signal_number == SIGTERM ? "SIGTERM" : "SIGINT");
  std::fflush(stdout);
  server.Shutdown();
  batcher.Shutdown();

  serve::EngineStats stats = engine.Stats();
  std::printf(
      "served %llu queries over %llu connections (%llu bound-rejected, "
      "%llu singleton, %llu cache, %llu exact) in %llu batches\n",
      static_cast<unsigned long long>(stats.queries),
      static_cast<unsigned long long>(server.connections_accepted()),
      static_cast<unsigned long long>(stats.bound_rejects),
      static_cast<unsigned long long>(stats.singleton_hits),
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.exact_counts),
      static_cast<unsigned long long>(batcher.batches_dispatched()));
  return 0;
}

// Blocking client-side helpers for `ossm_cli query`.

bool WriteAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::write(fd, data.data() + sent, data.size() - sent);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  bool ReadLine(std::string* line) {
    for (;;) {
      size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        line->assign(buffer_, 0, newline);
        if (!line->empty() && line->back() == '\r') line->pop_back();
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[4096];
      ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

int ConnectTo(const std::string& host, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

// Mirrors the server's canonicalization (sort + dedup) so the oracle counts
// exactly what the server counted.
Itemset ParseQueryLine(const std::string& line) {
  Itemset items;
  const char* p = line.c_str();
  while (*p != '\0') {
    while (*p == ' ' || *p == '\t') ++p;
    if (*p == '\0') break;
    char* end = nullptr;
    unsigned long long value = std::strtoull(p, &end, 10);
    if (end == p) return {};  // non-numeric token: let the server ERR it
    items.push_back(static_cast<ItemId>(
        value > 0xFFFFFFFFULL ? 0xFFFFFFFFULL : value));
    p = end;
  }
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  return items;
}

int CmdQuery(const Args& args) {
  if (args.Has("help")) {
    std::puts(
        "query --port=N [--host=ADDR] [--check-data=FILE] [--quiet]\n"
        "reads one itemset per line from stdin (FIMI style: '3 17 204'),\n"
        "pipelines them to a running `ossm_cli serve`, and prints each\n"
        "response. With --check-data, recounts every answer against the\n"
        "dataset and exits 1 on any mismatch.");
    return 0;
  }
  uint16_t port = static_cast<uint16_t>(args.GetInt("port", 0));
  if (port == 0) {
    std::fprintf(stderr, "query needs --port=N\n");
    return 2;
  }
  std::string host = args.Get("host", "127.0.0.1");
  bool quiet = args.Has("quiet");

  std::vector<std::string> query_lines;
  char buffer[1 << 16];
  while (std::fgets(buffer, sizeof(buffer), stdin) != nullptr) {
    std::string line(buffer);
    while (!line.empty() &&
           (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    if (line.find_first_not_of(" \t") != std::string::npos) {
      query_lines.push_back(line);
    }
  }

  TransactionDatabase oracle_db(0);
  bool check = args.Has("check-data");
  if (check) {
    StatusOr<TransactionDatabase> loaded =
        LoadDataset(args.Get("check-data", ""));
    if (!loaded.ok()) return Fail(loaded.status());
    oracle_db = std::move(*loaded);
  }

  int fd = ConnectTo(host, port);
  if (fd < 0) {
    std::fprintf(stderr, "cannot connect to %s:%u\n", host.c_str(), port);
    return 1;
  }
  LineReader reader(fd);

  // INFO first: the oracle needs the server's minsup to judge rejects.
  std::string response;
  uint64_t minsup = 0;
  if (!WriteAll(fd, "INFO\n") || !reader.ReadLine(&response) ||
      response.rfind("INFO ", 0) != 0) {
    std::fprintf(stderr, "bad INFO handshake\n");
    ::close(fd);
    return 1;
  }
  size_t minsup_at = response.find("minsup=");
  if (minsup_at != std::string::npos) {
    minsup = std::strtoull(response.c_str() + minsup_at + 7, nullptr, 10);
  }
  if (!quiet) std::printf("%s\n", response.c_str());

  std::string payload;
  for (const std::string& line : query_lines) {
    payload += "Q ";
    payload += line;
    payload += '\n';
  }
  payload += "QUIT\n";
  if (!WriteAll(fd, payload)) {
    std::fprintf(stderr, "write to server failed\n");
    ::close(fd);
    return 1;
  }

  uint64_t mismatches = 0;
  uint64_t answered = 0;
  for (const std::string& line : query_lines) {
    if (!reader.ReadLine(&response)) {
      std::fprintf(stderr, "server closed with %zu of %zu answers pending\n",
                   query_lines.size() - answered, query_lines.size());
      ::close(fd);
      return 1;
    }
    ++answered;
    if (!quiet) std::printf("%s -> %s\n", line.c_str(), response.c_str());

    if (!check) continue;
    Itemset itemset = ParseQueryLine(line);
    bool valid = !itemset.empty() &&
                 itemset.back() < oracle_db.num_items();
    if (!valid) {
      if (response.rfind("ERR", 0) != 0) {
        std::fprintf(stderr, "MISMATCH '%s': expected ERR, got '%s'\n",
                     line.c_str(), response.c_str());
        ++mismatches;
      }
      continue;
    }
    uint64_t exact = 0;
    for (uint64_t t = 0; t < oracle_db.num_transactions(); ++t) {
      if (oracle_db.Contains(t, itemset)) ++exact;
    }
    if (response.rfind("OK ", 0) == 0) {
      uint64_t support = std::strtoull(response.c_str() + 3, nullptr, 10);
      if (support != exact) {
        std::fprintf(stderr, "MISMATCH '%s': served %llu, exact %llu\n",
                     line.c_str(), static_cast<unsigned long long>(support),
                     static_cast<unsigned long long>(exact));
        ++mismatches;
      }
    } else if (response.rfind("RJ ", 0) == 0) {
      uint64_t bound = std::strtoull(response.c_str() + 3, nullptr, 10);
      // A reject is correct iff the bound is below minsup and really
      // bounds the exact support.
      if (bound >= minsup || exact > bound) {
        std::fprintf(stderr,
                     "MISMATCH '%s': RJ bound %llu vs exact %llu "
                     "(minsup %llu)\n",
                     line.c_str(), static_cast<unsigned long long>(bound),
                     static_cast<unsigned long long>(exact),
                     static_cast<unsigned long long>(minsup));
        ++mismatches;
      }
    } else {
      std::fprintf(stderr, "MISMATCH '%s': unexpected '%s'\n", line.c_str(),
                   response.c_str());
      ++mismatches;
    }
  }
  bool got_bye = reader.ReadLine(&response) && response == "BYE";
  ::close(fd);
  if (!got_bye) {
    std::fprintf(stderr, "missing BYE after %zu answers\n",
                 query_lines.size());
    return 1;
  }
  if (check) {
    std::printf("checked %zu queries against the oracle: %llu mismatches\n",
                query_lines.size(),
                static_cast<unsigned long long>(mismatches));
    if (mismatches > 0) return 1;
  }
  return 0;
}

// ---- `top`: live serving dashboard over STATS / METRICS / SLOWLOG ----

// One Prometheus exposition sample: everything before the last space is the
// series key (metric name plus its label block), the remainder the value.
void ParseMetricLine(const std::string& line,
                     std::map<std::string, double>& series) {
  if (line.empty() || line[0] == '#') return;
  size_t space = line.rfind(' ');
  if (space == std::string::npos || space + 1 >= line.size()) return;
  series[line.substr(0, space)] =
      std::strtod(line.c_str() + space + 1, nullptr);
}

double Series(const std::map<std::string, double>& series,
              const std::string& key) {
  auto it = series.find(key);
  return it == series.end() ? 0.0 : it->second;
}

// The three windowed quantiles of one summary family as table cells.
std::vector<std::string> QuantileCells(
    const std::map<std::string, double>& series, const std::string& name,
    const std::string& labels) {
  std::vector<std::string> cells;
  for (const char* q : {"0.5", "0.95", "0.99"}) {
    cells.push_back(TablePrinter::FormatDouble(Series(
        series,
        name + "{" + labels + "window=\"10s\",quantile=\"" + q + "\"}")));
  }
  return cells;
}

int CmdTop(const Args& args) {
  if (args.Has("help")) {
    std::puts(
        "top --port=N [--host=ADDR] [--interval-ms=N] [--iterations=N]\n"
        "    [--slowlog=N] [--no-clear]\n"
        "polls a running `ossm_cli serve` over STATS/METRICS/SLOWLOG and\n"
        "renders a refreshing dashboard: qps, per-tier latency percentiles\n"
        "over the last 10s, cache hit ratio, queue depth, process RSS/IPC,\n"
        "and the slow-query tail. A dropped connection is retried with\n"
        "bounded backoff (5 attempts, 250ms doubling to 4s) before giving\n"
        "up. --iterations=N draws N frames and exits (0 = forever);\n"
        "--no-clear appends frames instead of redrawing (for logs/CI).");
    return 0;
  }
  uint16_t port = static_cast<uint16_t>(args.GetInt("port", 0));
  if (port == 0) {
    std::fprintf(stderr, "top needs --port=N\n");
    return 2;
  }
  std::string host = args.Get("host", "127.0.0.1");
  int64_t interval_ms = args.GetInt("interval-ms", 1000);
  int64_t iterations = args.GetInt("iterations", 0);
  int64_t slowlog_rows = std::max<int64_t>(0, args.GetInt("slowlog", 5));
  bool no_clear = args.Has("no-clear");

  int fd = -1;
  std::unique_ptr<LineReader> reader;  // rebuilt on every (re)connect

  // A monitoring session should survive a server restart: every connect —
  // initial or after a drop — gets a bounded exponential backoff (5
  // attempts, 250ms doubling, 4s cap) before `top` gives up for good.
  constexpr int kConnectAttempts = 5;
  auto connect_with_backoff = [&]() {
    int64_t delay_ms = 250;
    for (int attempt = 1; attempt <= kConnectAttempts; ++attempt) {
      fd = ConnectTo(host, port);
      if (fd >= 0) {
        reader = std::make_unique<LineReader>(fd);
        return true;
      }
      if (attempt < kConnectAttempts) {
        std::fprintf(stderr,
                     "cannot connect to %s:%u (attempt %d/%d), retrying in "
                     "%lld ms\n",
                     host.c_str(), port, attempt, kConnectAttempts,
                     static_cast<long long>(delay_ms));
        ::usleep(static_cast<useconds_t>(delay_ms) * 1000);
        delay_ms = std::min<int64_t>(delay_ms * 2, 4000);
      }
    }
    std::fprintf(stderr, "cannot connect to %s:%u after %d attempts\n",
                 host.c_str(), port, kConnectAttempts);
    return false;
  };
  auto drop_connection = [&]() {
    if (fd >= 0) ::close(fd);
    fd = -1;
    reader.reset();
  };

  if (!connect_with_backoff()) return 1;

  for (int64_t frame = 0; iterations == 0 || frame < iterations; ++frame) {
    if (frame > 0 && interval_ms > 0) {
      ::usleep(static_cast<useconds_t>(interval_ms) * 1000);
    }

    std::map<std::string, std::string> stats;
    std::map<std::string, double> series;
    std::vector<std::string> slow;

    // One STATS/METRICS/SLOWLOG round trip. Any short read or malformed
    // frame means the connection is unusable (mid-body desync cannot be
    // resynchronized on a pipelined stream), so the caller reconnects.
    auto poll_frame = [&]() {
      stats.clear();
      series.clear();
      slow.clear();
      std::string payload =
          "STATS\nMETRICS\nSLOWLOG " + std::to_string(slowlog_rows) + "\n";
      std::string line;
      if (!WriteAll(fd, payload) || !reader->ReadLine(&line) ||
          line.rfind("STATS ", 0) != 0) {
        return false;
      }
      {
        std::istringstream tokens(line.substr(6));
        std::string token;
        while (tokens >> token) {
          size_t eq = token.find('=');
          if (eq != std::string::npos) {
            stats[token.substr(0, eq)] = token.substr(eq + 1);
          }
        }
      }
      if (!reader->ReadLine(&line) || line.rfind("METRICS ", 0) != 0) {
        return false;
      }
      uint64_t metric_lines = std::strtoull(line.c_str() + 8, nullptr, 10);
      for (uint64_t i = 0; i < metric_lines; ++i) {
        if (!reader->ReadLine(&line)) return false;
        ParseMetricLine(line, series);
      }
      if (!reader->ReadLine(&line) || line.rfind("SLOWLOG", 0) != 0) {
        return false;
      }
      uint64_t slow_lines =
          line.size() > 8 ? std::strtoull(line.c_str() + 8, nullptr, 10) : 0;
      for (uint64_t i = 0; i < slow_lines; ++i) {
        if (!reader->ReadLine(&line)) return false;
        slow.push_back(line);
      }
      return true;
    };

    bool polled = false;
    for (int attempt = 0; attempt < 2 && !polled; ++attempt) {
      if (fd < 0 && !connect_with_backoff()) return 1;
      polled = poll_frame();
      if (!polled) {
        std::fprintf(stderr, "lost server at %s:%u; reconnecting\n",
                     host.c_str(), port);
        drop_connection();
      }
    }
    if (!polled) return 1;

    std::ostringstream screen;
    if (!no_clear) screen << "\x1b[2J\x1b[H";
    char head[256];
    std::snprintf(head, sizeof(head),
                  "ossm top — %s:%u   qps 10s/1m: %s / %s   "
                  "cache hit 10s: %.0f%%   queue depth: %llu\n",
                  host.c_str(), port,
                  TablePrinter::FormatDouble(
                      Series(series, "ossm_serve_qps_10s")).c_str(),
                  TablePrinter::FormatDouble(
                      Series(series, "ossm_serve_qps_1m")).c_str(),
                  Series(series, "ossm_serve_cache_hit_ratio_10s") * 100.0,
                  static_cast<unsigned long long>(
                      Series(series, "ossm_serve_queue_depth")));
    // Process resources ride along in the same METRICS scrape. IPC is a
    // delta between scrapes and only exported when the PMU grants
    // inherited counters, so it reads "n/a" in containers.
    char resources[192];
    double rss_mb =
        Series(series, "ossm_process_rss_bytes") / (1024.0 * 1024.0);
    bool perf_on = Series(series, "ossm_process_perf_available") > 0.0;
    if (perf_on && series.count("ossm_process_ipc") > 0) {
      std::snprintf(resources, sizeof(resources),
                    "process: rss %.1f MB   ipc %.2f   threads %llu\n",
                    rss_mb, Series(series, "ossm_process_ipc"),
                    static_cast<unsigned long long>(
                        Series(series, "ossm_process_threads")));
    } else {
      std::snprintf(resources, sizeof(resources),
                    "process: rss %.1f MB   ipc n/a (perf counters "
                    "unavailable)   threads %llu\n",
                    rss_mb,
                    static_cast<unsigned long long>(
                        Series(series, "ossm_process_threads")));
    }
    screen << head << resources
           << "totals: queries=" << stats["queries"]
           << " batches=" << stats["batches"]
           << " coalesced=" << stats["coalesced"]
           << " backpressure=" << stats["backpressure"]
           << " cache_size=" << stats["cache_size"] << "\n\n";

    TablePrinter table({"lane", "p50 us (10s)", "p95 us (10s)",
                        "p99 us (10s)", "count (1m)"});
    auto add_summary = [&](const std::string& lane, const std::string& name,
                           const std::string& labels) {
      std::vector<std::string> row{lane};
      for (std::string& cell : QuantileCells(series, name, labels)) {
        row.push_back(std::move(cell));
      }
      const std::string count_key =
          labels.empty() ? name + "_count"
                         : name + "_count{" +
                               labels.substr(0, labels.size() - 1) + "}";
      row.push_back(TablePrinter::FormatCount(
          static_cast<uint64_t>(Series(series, count_key))));
      table.AddRow(std::move(row));
    };
    add_summary("request", "ossm_serve_request_us", "");
    add_summary("queue wait", "ossm_serve_queue_wait_us", "");
    for (const char* tier : {"reject", "singleton", "cache", "exact"}) {
      add_summary(std::string("tier:") + tier, "ossm_serve_tier_us",
                  "tier=\"" + std::string(tier) + "\",");
    }
    table.Print(screen);

    screen << "\nslow queries (newest first, total "
           << TablePrinter::FormatCount(static_cast<uint64_t>(
                  Series(series, "ossm_serve_slowlog_entries_total")))
           << "):\n";
    if (slow.empty()) {
      screen << "  (none)\n";
    } else {
      for (const std::string& entry : slow) screen << "  " << entry << "\n";
    }

    std::fputs(screen.str().c_str(), stdout);
    std::fflush(stdout);
  }
  if (fd >= 0) {
    WriteAll(fd, "QUIT\n");  // best-effort goodbye; server closes after BYE
    ::close(fd);
  }
  return 0;
}

int Usage() {
  std::puts(
      "ossm_cli — segment support maps for frequency counting\n"
      "usage: ossm_cli <gen|build|mine|rules|inspect|info|serve|query|top> "
      "[--flags]\n"
      "run a subcommand with --help for its flags\n"
      "\n"
      "example session:\n"
      "  ossm_cli gen --kind=quest --seasons=8 --boost=6 --out=d.bin\n"
      "  ossm_cli build --data=d.bin --algorithm=random-greedy \\\n"
      "      --segments=60 --out=d.ossm\n"
      "  ossm_cli mine --data=d.bin --ossm=d.ossm --threshold=0.01\n"
      "  ossm_cli rules --data=d.bin --ossm=d.ossm --confidence=0.7");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  Args args(argc, argv, 2);
  if (command == "gen") return CmdGen(args);
  if (command == "build") return CmdBuild(args);
  if (command == "mine") return CmdMine(args);
  if (command == "rules") return CmdRules(args);
  if (command == "inspect") return CmdInspect(args);
  if (command == "info") return CmdInfo(args);
  if (command == "serve") return CmdServe(args);
  if (command == "query") return CmdQuery(args);
  if (command == "top") return CmdTop(args);
  return Usage();
}

}  // namespace
}  // namespace ossm

int main(int argc, char** argv) { return ossm::Main(argc, argv); }

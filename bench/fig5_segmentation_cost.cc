// Reproduces Figure 5 of the paper: the "compile-time" cost of producing an
// OSSM, versus the speedup it then delivers at every mining query.
//   (a) pure strategies (Random, RC, Greedy) at a moderate page count;
//   (b) hybrid strategies (Random-RC, Random-Greedy) at a 10x page count,
//       with the Random phase collapsing P pages to n_mid = 200 segments.
// In both, n_user = 40 segments (Section 6.3).
//
// Columns beyond the paper's two: "ossub evals" is the deterministic cost
// measure (the paper's complexity analysis counts exactly these and prices
// each at m(m-1)/2 item pairs; the closed form of core/ossub.h evaluates
// one with a sort of m sums), and "C2 counted" is the deterministic
// quality measure (fraction of candidate 2-itemsets the OSSM failed to
// prune; lower is better).
//
// Expected shape: Random costs zero evaluations and prunes least; RC and
// Greedy pay O(P^2) evaluations for the best pruning; the hybrids handle
// 10x the pages with roughly the SAME evaluation count as the pure
// algorithms (the Random phase eats the P^2 factor), at a small quality
// penalty.

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "core/ossm_builder.h"
#include "mining/candidate_pruner.h"

namespace ossm {
namespace {

struct StrategyOutcome {
  double segmentation_seconds = 0.0;
  uint64_t ossub_evaluations = 0;
  double speedup = 1.0;
  double c2_fraction = 1.0;
};

StrategyOutcome RunStrategy(const TransactionDatabase& db,
                            SegmentationAlgorithm algorithm,
                            const bench::MiningMeasurement& baseline,
                            int repeats) {
  OssmBuildOptions build_options;
  build_options.algorithm = algorithm;
  build_options.target_segments = 40;
  build_options.transactions_per_page = 100;
  build_options.intermediate_segments = 200;
  StatusOr<OssmBuildResult> build = BuildOssm(db, build_options);
  OSSM_CHECK(build.ok()) << build.status().ToString();

  OssmPruner pruner(&build->map);
  AprioriConfig config;
  config.min_support_fraction = 0.01;
  config.pruner = &pruner;
  bench::MiningMeasurement with = bench::MeasureApriori(db, config, repeats);
  OSSM_CHECK(with.result.SamePatternsAs(baseline.result))
      << "OSSM pruning must be lossless";

  uint64_t baseline_c2 = baseline.result.stats.CountedAtLevel(2);
  StrategyOutcome outcome;
  outcome.segmentation_seconds = build->stats.seconds;
  outcome.ossub_evaluations = build->stats.ossub_evaluations;
  outcome.speedup = baseline.seconds / with.seconds;
  outcome.c2_fraction =
      baseline_c2 == 0
          ? 1.0
          : static_cast<double>(with.result.stats.CountedAtLevel(2)) /
                static_cast<double>(baseline_c2);
  return outcome;
}

void RunTable(const char* title, const char* report_prefix,
              const TransactionDatabase& db,
              const std::vector<SegmentationAlgorithm>& algorithms,
              int repeats, bench::BenchReporter& reporter) {
  bench::BenchReporter::ScopedPhase phase(reporter, report_prefix);
  AprioriConfig base_config;
  base_config.min_support_fraction = 0.01;
  bench::MiningMeasurement baseline =
      bench::MeasureApriori(db, base_config, repeats);
  reporter.AddPatternResults(std::string(report_prefix) + ".", baseline.result);

  std::printf("%s\n", title);
  TablePrinter table({"strategy", "segmentation time (s)", "ossub evals",
                      "speedup", "C2 counted"});
  for (SegmentationAlgorithm algorithm : algorithms) {
    StrategyOutcome outcome = RunStrategy(db, algorithm, baseline, repeats);
    table.AddRow({std::string(SegmentationAlgorithmName(algorithm)),
                  TablePrinter::FormatDouble(outcome.segmentation_seconds, 4),
                  TablePrinter::FormatCount(outcome.ossub_evaluations),
                  TablePrinter::FormatDouble(outcome.speedup, 2),
                  TablePrinter::FormatDouble(outcome.c2_fraction, 3)});
    std::string point = std::string(report_prefix) + "." +
                        std::string(SegmentationAlgorithmName(algorithm));
    reporter.AddValue("seg_seconds." + point, outcome.segmentation_seconds);
    reporter.AddResult("ossub_evals." + point,
                       static_cast<double>(outcome.ossub_evaluations));
    reporter.AddValue("speedup." + point, outcome.speedup);
    reporter.AddResult("c2_fraction." + point, outcome.c2_fraction);
  }
  table.Print(std::cout);
}

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv,
                     {"scale", "seed", "items", "repeats", "data", "report"});
  bench::BenchReporter reporter("fig5_segmentation_cost", flags);
  bool paper = flags.PaperScale();
  uint32_t num_items = flags.GetInt<uint32_t>("items", paper ? 1000 : 400);
  uint64_t seed = flags.GetInt<uint64_t>("seed", 1);
  int repeats = flags.GetInt<int>("repeats", 2);
  bool drifting = flags.GetString("data", "drifting") != "regular";

  // (a) pure strategies: paper used P = 500 pages (50k transactions).
  uint64_t pure_pages = paper ? 500 : 200;
  // (b) hybrids: paper used P = 50 000 pages (5M transactions).
  uint64_t hybrid_pages = paper ? 50000 : 2000;

  std::printf(
      "Figure 5 — segmentation cost vs mining speedup (n_user = 40)\n"
      "items m = %u, threshold 1%%, 100 transactions per page, %s data\n\n",
      num_items, drifting ? "drifting" : "regular (i.i.d.)");

  reporter.SetWorkload("data", drifting ? "drifting" : "regular");
  reporter.SetWorkload("items", static_cast<uint64_t>(num_items));
  reporter.SetWorkload("seed", seed);
  reporter.SetWorkload("repeats", static_cast<uint64_t>(repeats));
  reporter.SetWorkload("pure_pages", pure_pages);
  reporter.SetWorkload("hybrid_pages", hybrid_pages);

  {
    TransactionDatabase db =
        drifting
            ? bench::DriftingSynthetic(pure_pages * 100, num_items, seed)
            : bench::RegularSynthetic(pure_pages * 100, num_items, seed);
    char title[128];
    std::snprintf(title, sizeof(title),
                  "Figure 5(a): pure strategies, P = %llu pages",
                  static_cast<unsigned long long>(pure_pages));
    RunTable(title, "pure", db,
             {SegmentationAlgorithm::kRandom, SegmentationAlgorithm::kRc,
              SegmentationAlgorithm::kGreedy},
             repeats, reporter);
  }
  std::printf("\n");
  {
    TransactionDatabase db =
        drifting
            ? bench::DriftingSynthetic(hybrid_pages * 100, num_items, seed)
            : bench::RegularSynthetic(hybrid_pages * 100, num_items, seed);
    char title[128];
    std::snprintf(
        title, sizeof(title),
        "Figure 5(b): hybrid strategies, P = %llu pages, n_mid = 200",
        static_cast<unsigned long long>(hybrid_pages));
    RunTable(title, "hybrid", db,
             {SegmentationAlgorithm::kRandomRc,
              SegmentationAlgorithm::kRandomGreedy},
             repeats, reporter);
  }

  std::printf(
      "\nexpected shape: Random costs zero ossub evaluations and prunes the"
      "\nleast; RC and Greedy pay O(P^2) evaluations for the best pruning;"
      "\nthe hybrids cover 10x the pages with roughly the same evaluation"
      "\nbudget as the pure elaborate algorithms (the P^2 factor is gone)."
      "\nNote: at 10x the transactions with i.i.d. data, per-segment counts"
      "\nconcentrate and every OSSM loses bite (C2 fraction -> 1); pass"
      "\n--data=drifting for a collection with real temporal structure,"
      "\nwhere pruning survives scale (the paper's 'real data are not"
      "\nrandom' premise).\n");
  return reporter.Finish();
}

}  // namespace
}  // namespace ossm

int main(int argc, char** argv) { return ossm::Run(argc, argv); }

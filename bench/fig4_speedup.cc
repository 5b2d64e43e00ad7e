// Reproduces Figure 4 of the paper:
//   (a) speedup of Apriori with an OSSM, relative to Apriori without one,
//       as a function of the number of segments n_user, for the Random, RC
//       and Greedy segmentation algorithms;
//   (b) the fraction of candidate 2-itemsets that the OSSM does NOT prune
//       (ratio 1 = no OSSM).
// Workload: "regular" synthetic data, support threshold 1% (Section 6.2).
//
// Expected shape (paper): speedup grows with n_user; Greedy >= RC >= Random
// at every point; at large n_user only a few percent of C2 survives for the
// Greedy-built OSSM.

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "core/ossm_builder.h"
#include "mining/candidate_pruner.h"

namespace ossm {
namespace {

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv, {"scale", "seed", "transactions", "items",
                                  "repeats", "bubble", "data", "report"});
  bench::BenchReporter reporter("fig4_speedup", flags);
  bool paper = flags.PaperScale();
  uint64_t num_transactions =
      flags.GetInt<uint64_t>("transactions", paper ? 100000 : 20000);
  uint32_t num_items = flags.GetInt<uint32_t>("items", paper ? 1000 : 400);
  uint64_t seed = flags.GetInt<uint64_t>("seed", 1);
  int repeats = flags.GetInt<int>("repeats", 2);
  // Figure 4 in the paper runs the full (unrestricted) ossub; pass
  // --bubble=25 to restrict it to the hottest quarter of the domain.
  double bubble_percent = flags.GetInt<uint32_t>("bubble", 0);
  // Default is the drifting workload (patterns + seasonal popularity
  // shift): laptop-scale i.i.d. data leaves the bound little to exploit
  // (see EXPERIMENTS.md); pass --data=regular for the time-homogeneous
  // generator.
  bool regular = flags.GetString("data", "drifting") == "regular";

  std::printf(
      "Figure 4 — OSSM effectiveness vs number of segments\n"
      "workload: %s synthetic, %llu transactions, %u items, "
      "threshold 1%%, page = 100 transactions\n\n",
      regular ? "regular" : "drifting",
      static_cast<unsigned long long>(num_transactions), num_items);

  reporter.SetWorkload("data", regular ? "regular" : "drifting");
  reporter.SetWorkload("transactions", num_transactions);
  reporter.SetWorkload("items", static_cast<uint64_t>(num_items));
  reporter.SetWorkload("seed", seed);
  reporter.SetWorkload("repeats", static_cast<uint64_t>(repeats));
  reporter.SetWorkload("bubble_percent", bubble_percent);

  TransactionDatabase db =
      regular ? bench::RegularSynthetic(num_transactions, num_items, seed)
              : bench::DriftingSynthetic(num_transactions, num_items, seed);

  AprioriConfig base_config;
  base_config.min_support_fraction = 0.01;
  bench::MiningMeasurement baseline =
      bench::MeasureApriori(db, base_config, repeats);
  reporter.AddPhaseSeconds("baseline_mine", baseline.seconds);
  reporter.AddPatternResults("", baseline.result);
  uint64_t baseline_c2 = baseline.result.stats.CountedAtLevel(2);
  std::printf("Apriori without the OSSM: %.3f s, %llu candidate 2-itemsets\n\n",
              baseline.seconds,
              static_cast<unsigned long long>(baseline_c2));

  const std::vector<uint64_t> segment_counts = {20, 40, 60, 80, 100, 120,
                                                140, 160};
  const std::vector<SegmentationAlgorithm> algorithms = {
      SegmentationAlgorithm::kRandom, SegmentationAlgorithm::kRc,
      SegmentationAlgorithm::kGreedy};

  TablePrinter speedup_table(
      {"n_user", "Random", "RC", "Greedy", "OSSM size (KB)"});
  TablePrinter fraction_table({"n_user", "Random", "RC", "Greedy"});

  WallTimer sweep_timer;
  for (uint64_t n_user : segment_counts) {
    std::vector<std::string> speedup_row = {std::to_string(n_user)};
    std::vector<std::string> fraction_row = {std::to_string(n_user)};
    uint64_t footprint = 0;
    for (SegmentationAlgorithm algorithm : algorithms) {
      OssmBuildOptions build_options;
      build_options.algorithm = algorithm;
      build_options.target_segments = n_user;
      build_options.transactions_per_page = 100;
      build_options.bubble_fraction = bubble_percent / 100.0;
      build_options.bubble_threshold = 0.01;
      build_options.seed = seed;
      StatusOr<OssmBuildResult> build = BuildOssm(db, build_options);
      OSSM_CHECK(build.ok()) << build.status().ToString();
      footprint = build->map.MemoryFootprintBytes();

      OssmPruner pruner(&build->map);
      AprioriConfig config = base_config;
      config.pruner = &pruner;
      bench::MiningMeasurement with =
          bench::MeasureApriori(db, config, repeats);
      OSSM_CHECK(with.result.SamePatternsAs(baseline.result))
          << "OSSM pruning must be lossless";

      double speedup = baseline.seconds / with.seconds;
      double fraction =
          baseline_c2 == 0
              ? 1.0
              : static_cast<double>(with.result.stats.CountedAtLevel(2)) /
                    static_cast<double>(baseline_c2);
      speedup_row.push_back(TablePrinter::FormatDouble(speedup, 2));
      fraction_row.push_back(TablePrinter::FormatDouble(fraction, 3));
      std::string point = std::string(SegmentationAlgorithmName(algorithm)) +
                          ".n" + std::to_string(n_user);
      reporter.AddValue("speedup." + point, speedup);
      reporter.AddResult("c2_fraction." + point, fraction);
    }
    speedup_row.push_back(
        TablePrinter::FormatCount(footprint / 1024));
    speedup_table.AddRow(std::move(speedup_row));
    fraction_table.AddRow(std::move(fraction_row));
  }
  reporter.AddPhaseSeconds("sweep", sweep_timer.ElapsedSeconds());

  std::printf("Figure 4(a): speedup relative to Apriori without the OSSM\n");
  speedup_table.Print(std::cout);
  std::printf(
      "\nFigure 4(b): fraction of candidate 2-itemsets NOT pruned "
      "(1.0 = no OSSM)\n");
  fraction_table.Print(std::cout);
  std::printf(
      "\nexpected shape: speedup rises with n_user; Greedy >= RC >= Random;"
      "\nthe surviving-C2 fraction falls towards a few percent.\n");
  return reporter.Finish();
}

}  // namespace
}  // namespace ossm

int main(int argc, char** argv) { return ossm::Run(argc, argv); }

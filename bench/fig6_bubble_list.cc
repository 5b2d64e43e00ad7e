// Reproduces Figure 6 of the paper: the bubble-list optimization.
//   (a) segmentation time of the hybrid strategies as a function of bubble
//       list size (as a percentage of the item domain);
//   (b) the mining speedup delivered by the resulting OSSMs.
// The bubble list is selected against a 0.25% support threshold, but the
// mining queries run at 1% — demonstrating that an OSSM built with one
// threshold serves any other (Section 5.3 / Figure 6).
//
// Expected shape: segmentation time falls as the bubble shrinks, while the
// speedup degrades only mildly; longer bubbles -> better OSSMs. The paper's
// cost model has the bubble cut each evaluation from m^2 to B^2 item pairs
// (its log-scale collapse); with the closed form of core/ossub.h the cut
// is m log m -> B log B, so the fall is far shallower and the bubble is
// mainly a quality knob: it picks which items' loss counts.

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "core/ossm_builder.h"
#include "mining/candidate_pruner.h"

namespace ossm {
namespace {

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv, {"scale", "seed", "pages", "items",
                                  "repeats", "data", "report"});
  bench::BenchReporter reporter("fig6_bubble_list", flags);
  bool paper = flags.PaperScale();
  uint32_t num_items = flags.GetInt<uint32_t>("items", paper ? 1000 : 400);
  uint64_t pages = flags.GetInt<uint64_t>("pages", paper ? 50000 : 300);
  uint64_t seed = flags.GetInt<uint64_t>("seed", 1);
  int repeats = flags.GetInt<int>("repeats", 2);

  std::printf(
      "Figure 6 — the bubble-list optimization (hybrids, n_user = 40,\n"
      "n_mid = 200, P = %llu pages, m = %u items)\n"
      "bubble built at threshold 0.25%%; queries run at 1%%\n\n",
      static_cast<unsigned long long>(pages), num_items);

  bool drifting = flags.GetString("data", "drifting") != "regular";
  reporter.SetWorkload("data", drifting ? "drifting" : "regular");
  reporter.SetWorkload("pages", pages);
  reporter.SetWorkload("items", static_cast<uint64_t>(num_items));
  reporter.SetWorkload("seed", seed);
  reporter.SetWorkload("repeats", static_cast<uint64_t>(repeats));

  TransactionDatabase db =
      drifting ? bench::DriftingSynthetic(pages * 100, num_items, seed)
               : bench::RegularSynthetic(pages * 100, num_items, seed);
  AprioriConfig base_config;
  base_config.min_support_fraction = 0.01;
  bench::MiningMeasurement baseline =
      bench::MeasureApriori(db, base_config, repeats);
  reporter.AddPhaseSeconds("baseline_mine", baseline.seconds);
  reporter.AddPatternResults("", baseline.result);
  uint64_t baseline_c2 = baseline.result.stats.CountedAtLevel(2);

  const std::vector<double> bubble_percents = {2.5, 5, 10, 20, 40, 60, 100};

  TablePrinter time_table({"bubble (% of m)", "Random-RC (s)",
                           "Random-Greedy (s)"});
  TablePrinter speedup_table(
      {"bubble (% of m)", "Random-RC", "Random-Greedy"});

  WallTimer sweep_timer;
  for (double percent : bubble_percents) {
    std::vector<std::string> time_row = {
        TablePrinter::FormatDouble(percent, 1)};
    std::vector<std::string> speedup_row = {
        TablePrinter::FormatDouble(percent, 1)};
    for (SegmentationAlgorithm algorithm :
         {SegmentationAlgorithm::kRandomRc,
          SegmentationAlgorithm::kRandomGreedy}) {
      OssmBuildOptions build_options;
      build_options.algorithm = algorithm;
      build_options.target_segments = 40;
      build_options.intermediate_segments = 200;
      build_options.transactions_per_page = 100;
      build_options.bubble_fraction = percent / 100.0;
      build_options.bubble_threshold = 0.0025;  // != the 1% query threshold
      build_options.seed = seed;
      StatusOr<OssmBuildResult> build = BuildOssm(db, build_options);
      OSSM_CHECK(build.ok()) << build.status().ToString();

      OssmPruner pruner(&build->map);
      AprioriConfig config = base_config;
      config.pruner = &pruner;
      bench::MiningMeasurement with =
          bench::MeasureApriori(db, config, repeats);
      OSSM_CHECK(with.result.SamePatternsAs(baseline.result))
          << "OSSM pruning must be lossless";

      time_row.push_back(
          TablePrinter::FormatDouble(build->stats.seconds, 3));
      speedup_row.push_back(
          TablePrinter::FormatDouble(baseline.seconds / with.seconds, 2));
      std::string point = std::string(SegmentationAlgorithmName(algorithm)) +
                          ".b" + TablePrinter::FormatDouble(percent, 1);
      reporter.AddValue("seg_seconds." + point, build->stats.seconds);
      reporter.AddValue("speedup." + point,
                        baseline.seconds / with.seconds);
      reporter.AddResult(
          "c2_fraction." + point,
          baseline_c2 == 0
              ? 1.0
              : static_cast<double>(with.result.stats.CountedAtLevel(2)) /
                    static_cast<double>(baseline_c2));
    }
    time_table.AddRow(std::move(time_row));
    speedup_table.AddRow(std::move(speedup_row));
  }
  reporter.AddPhaseSeconds("sweep", sweep_timer.ElapsedSeconds());

  std::printf("Figure 6(a): segmentation time vs bubble size\n");
  time_table.Print(std::cout);
  std::printf("\nFigure 6(b): speedup at query threshold 1%%\n");
  speedup_table.Print(std::cout);
  std::printf(
      "\nexpected shape: time falls as the bubble shrinks (the paper's"
      "\n1051 s -> ~10 s, from m^2 -> B^2 item pairs per evaluation; the"
      "\nclosed-form ossub cuts only m log m -> B log B, so the fall here is"
      "\nshallower); the speedup penalty stays mild, and longer bubbles give"
      "\nbetter OSSMs. 100%% = no bubble restriction.\n");
  return reporter.Finish();
}

}  // namespace
}  // namespace ossm

int main(int argc, char** argv) { return ossm::Run(argc, argv); }

// Ablation A7: page-size sensitivity. The paper fixes 100 transactions per
// 4 KB page (Section 6.3) and never varies it; this ablation asks how much
// that choice matters. Smaller pages give the segmentation algorithms finer
// raw material (more pages, sharper per-page contrast) at a quadratic cost
// in ossub evaluations; larger pages pre-average the collection before any
// algorithm sees it.
//
// Expected shape: pruning quality is roughly flat across page sizes while
// segmentation cost grows ~quadratically in the page count — the paper's
// 100-transactions-per-page default sits squarely in the cheap-and-good
// regime (a sensible default, not a magic constant).

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
                                  "repeats", "report"});
  bench::BenchReporter reporter("ablation_pagesize", flags);
  bool paper = flags.PaperScale();
  uint64_t num_transactions =
      flags.GetInt<uint64_t>("transactions", paper ? 100000 : 20000);
  uint32_t num_items = flags.GetInt<uint32_t>("items", paper ? 1000 : 400);
  uint64_t seed = flags.GetInt<uint64_t>("seed", 1);
  int repeats = flags.GetInt<int>("repeats", 2);

  std::printf(
      "Ablation — page-size sensitivity (n_user = 60, Greedy, drifting\n"
      "synthetic, %llu transactions, %u items, threshold 1%%)\n\n",
      static_cast<unsigned long long>(num_transactions), num_items);

  reporter.SetWorkload("data", "drifting");
  reporter.SetWorkload("transactions", num_transactions);
  reporter.SetWorkload("items", static_cast<uint64_t>(num_items));
  reporter.SetWorkload("seed", seed);
  reporter.SetWorkload("repeats", static_cast<uint64_t>(repeats));

  TransactionDatabase db =
      bench::DriftingSynthetic(num_transactions, num_items, seed);
  AprioriConfig base_config;
  base_config.min_support_fraction = 0.01;
  bench::MiningMeasurement baseline =
      bench::MeasureApriori(db, base_config, repeats);
  uint64_t baseline_c2 = baseline.result.stats.CountedAtLevel(2);
  reporter.AddPhaseSeconds("baseline_mine", baseline.seconds);
  reporter.AddPatternResults("", baseline.result);

  TablePrinter table({"txns/page", "pages", "seg. time (s)", "ossub evals",
                      "C2 counted", "speedup"});
  WallTimer sweep_timer;
  for (uint64_t page : {25u, 50u, 100u, 200u, 400u, 1000u}) {
    OssmBuildOptions build_options;
    build_options.algorithm = SegmentationAlgorithm::kGreedy;
    build_options.target_segments = 60;
    build_options.transactions_per_page = page;
    build_options.bubble_fraction = 0.25;  // keep the sweep affordable
    build_options.bubble_threshold = 0.01;
    build_options.seed = seed;
    uint64_t pages = (num_transactions + page - 1) / page;
    if (pages < build_options.target_segments) continue;

    StatusOr<OssmBuildResult> build = BuildOssm(db, build_options);
    OSSM_CHECK(build.ok()) << build.status().ToString();
    OssmPruner pruner(&build->map);
    AprioriConfig config = base_config;
    config.pruner = &pruner;
    bench::MiningMeasurement with =
        bench::MeasureApriori(db, config, repeats);
    OSSM_CHECK(with.result.SamePatternsAs(baseline.result))
        << "OSSM pruning must be lossless";
    double c2_fraction =
        baseline_c2 == 0
            ? 1.0
            : static_cast<double>(with.result.stats.CountedAtLevel(2)) /
                  static_cast<double>(baseline_c2);

    table.AddRow(
        {TablePrinter::FormatCount(page), TablePrinter::FormatCount(pages),
         TablePrinter::FormatDouble(build->stats.seconds, 3),
         TablePrinter::FormatCount(build->stats.ossub_evaluations),
         TablePrinter::FormatDouble(c2_fraction, 3),
         TablePrinter::FormatDouble(baseline.seconds / with.seconds, 2)});
    std::string point = "p" + std::to_string(page);
    reporter.AddValue("seg_seconds." + point, build->stats.seconds);
    reporter.AddResult("ossub_evals." + point,
                       static_cast<double>(build->stats.ossub_evaluations));
    reporter.AddResult("c2_fraction." + point, c2_fraction);
    reporter.AddValue("speedup." + point, baseline.seconds / with.seconds);
  }
  reporter.AddPhaseSeconds("sweep", sweep_timer.ElapsedSeconds());
  table.Print(std::cout);
  std::printf(
      "\nexpected shape: pruning quality is roughly flat across page sizes"
      "\nwhile segmentation cost varies by ~two orders of magnitude — the"
      "\npaper's 100-per-page default sits in the cheap-and-good regime.\n");
  return reporter.Finish();
}

}  // namespace
}  // namespace ossm

int main(int argc, char** argv) { return ossm::Run(argc, argv); }

// Ablation A1 / recipe validation E8: "the more skewed the data, the more
// effective the OSSM" (Section 3), and the Figure 7 recipe's first branch —
// on skewed data with a generous segment budget, plain Random segmentation
// is already sufficient.
//
// Sweeps the seasonal boost factor (1 = uniform) and reports, for Random-
// and Greedy-built OSSMs with the same budget: the fraction of candidate
// 2-itemsets pruned and the resulting speedup.
//
// Expected shape: pruning and speedup grow with skew for both algorithms;
// the Greedy-over-Random advantage narrows as skew rises (Random suffices —
// the recipe's point).

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "core/ossm_builder.h"
#include "datagen/skewed_generator.h"
#include "mining/candidate_pruner.h"

namespace ossm {
namespace {

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv, {"scale", "seed", "transactions", "items",
                                  "repeats", "report"});
  bench::BenchReporter reporter("ablation_skew", flags);
  bool paper = flags.PaperScale();
  uint64_t num_transactions =
      flags.GetInt<uint64_t>("transactions", paper ? 100000 : 20000);
  uint32_t num_items = flags.GetInt<uint32_t>("items", paper ? 1000 : 300);
  uint64_t seed = flags.GetInt<uint64_t>("seed", 1);
  int repeats = flags.GetInt<int>("repeats", 2);

  reporter.SetWorkload("transactions", num_transactions);
  reporter.SetWorkload("items", static_cast<uint64_t>(num_items));
  reporter.SetWorkload("seed", seed);
  reporter.SetWorkload("repeats", static_cast<uint64_t>(repeats));

  std::printf(
      "Ablation — skew sensitivity (Section 3 claim + Figure 7 recipe)\n"
      "%llu transactions, %u items, threshold 1%%\n\n",
      static_cast<unsigned long long>(num_transactions), num_items);

  WallTimer sweep_timer;

  for (uint64_t n_user : {uint64_t{60}, uint64_t{150}}) {
  std::printf("%s budget: n_user = %llu segments (of %llu pages)\n",
              n_user >= 150 ? "generous" : "tight",
              static_cast<unsigned long long>(n_user),
              static_cast<unsigned long long>(num_transactions / 100));
  TablePrinter table({"in-season boost", "pruned C2 % (Random)",
                      "speedup (Random)", "pruned C2 % (Greedy)",
                      "speedup (Greedy)"});

  for (double boost : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    SkewedConfig gen;
    gen.num_items = num_items;
    gen.num_transactions = num_transactions;
    // Mean item support 2%, twice the mining threshold: with no skew the
    // bound cannot prune items this frequent, so any pruning that appears
    // as the boost grows is attributable to the skew alone.
    gen.avg_transaction_size = num_items / 50.0;
    gen.in_season_boost = boost;
    gen.seed = seed;
    StatusOr<TransactionDatabase> db = GenerateSkewed(gen);
    OSSM_CHECK(db.ok()) << db.status().ToString();

    AprioriConfig base_config;
    base_config.min_support_fraction = 0.01;
    bench::MiningMeasurement baseline =
        bench::MeasureApriori(*db, base_config, repeats);
    std::string budget_point = "n";
    budget_point += std::to_string(n_user) + ".boost" +
                    TablePrinter::FormatDouble(boost, 0);
    reporter.AddPatternResults(budget_point + ".", baseline.result);

    std::vector<std::string> row = {TablePrinter::FormatDouble(boost, 0)};
    for (SegmentationAlgorithm algorithm :
         {SegmentationAlgorithm::kRandom, SegmentationAlgorithm::kGreedy}) {
      OssmBuildOptions build_options;
      build_options.algorithm = algorithm;
      build_options.target_segments = n_user;
      build_options.transactions_per_page = 100;
      build_options.bubble_fraction = 0.25;
      build_options.bubble_threshold = 0.01;
      build_options.seed = seed;
      StatusOr<OssmBuildResult> build = BuildOssm(*db, build_options);
      OSSM_CHECK(build.ok()) << build.status().ToString();

      OssmPruner pruner(&build->map);
      AprioriConfig config = base_config;
      config.pruner = &pruner;
      bench::MiningMeasurement with =
          bench::MeasureApriori(*db, config, repeats);
      OSSM_CHECK(with.result.SamePatternsAs(baseline.result))
          << "OSSM pruning must be lossless";

      uint64_t generated = with.result.stats.GeneratedAtLevel(2);
      uint64_t pruned = 0;
      for (const LevelStats& l : with.result.stats.levels) {
        if (l.level == 2) pruned = l.pruned_by_bound;
      }
      double pruned_percent =
          generated == 0 ? 0.0
                         : 100.0 * static_cast<double>(pruned) /
                               static_cast<double>(generated);
      row.push_back(TablePrinter::FormatDouble(pruned_percent, 1));
      row.push_back(
          TablePrinter::FormatDouble(baseline.seconds / with.seconds, 2));
      std::string point = std::string(SegmentationAlgorithmName(algorithm)) +
                          "." + budget_point;
      reporter.AddResult("pruned_pct." + point, pruned_percent);
      reporter.AddValue("speedup." + point,
                        baseline.seconds / with.seconds);
    }
    table.AddRow(std::move(row));
  }

  table.Print(std::cout);
  std::printf("\n");
  }
  reporter.AddPhaseSeconds("sweep", sweep_timer.ElapsedSeconds());
  std::printf(
      "expected shape: with no skew (boost 1) nothing is prunable at this"
      "\nsupport level, whatever the algorithm — the washout row. As skew"
      "\ngrows, Greedy exploits it even on a tight budget, while Random"
      "\nneeds the generous budget (segments ~ pages) to preserve the"
      "\nseasonal contrast it never looks for — exactly the Figure 7"
      "\nrecipe: Random suffices only when n_user is large AND the data"
      "\nis skewed; otherwise pay for an elaborate algorithm.\n");
  return reporter.Finish();
}

}  // namespace
}  // namespace ossm

int main(int argc, char** argv) { return ossm::Run(argc, argv); }

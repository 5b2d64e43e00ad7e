// Ablation A3: the segment minimization theory of Section 4 made concrete.
//   * measured n_min (distinct transaction configurations) versus the
//     Theorem 1 cap min(N, 2^m - m), as the item count m grows;
//   * verification that the n_min-segment OSSM is exact for every itemset
//     on exhaustively-checkable domains;
//   * the page version (Corollary 1): page-level n_min versus page count.
//
// Expected shape: for small m the 2^m - m cap binds and measured n_min
// saturates at it; for larger m the data (N) binds long before the cap —
// the paper's argument that exact OSSMs are impractical and constrained
// segmentation is the problem worth solving.

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "core/segment_support_map.h"
#include "core/theory.h"
#include "data/page_layout.h"

namespace ossm {
namespace {

uint64_t TrueSupport(const TransactionDatabase& db, const Itemset& items) {
  uint64_t count = 0;
  for (uint64_t t = 0; t < db.num_transactions(); ++t) {
    if (db.Contains(t, items)) ++count;
  }
  return count;
}

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv, {"scale", "seed", "transactions", "report"});
  bench::BenchReporter reporter("ablation_theory", flags);
  uint64_t num_transactions = flags.GetInt<uint64_t>("transactions", 5000);
  uint64_t seed = flags.GetInt<uint64_t>("seed", 1);

  reporter.SetWorkload("transactions", num_transactions);
  reporter.SetWorkload("seed", seed);

  std::printf(
      "Ablation — segment minimization (Theorem 1 / Corollary 1)\n"
      "regular synthetic, N = %llu transactions per domain size\n\n",
      static_cast<unsigned long long>(num_transactions));

  TablePrinter table({"items m", "2^m - m", "measured n_min",
                      "n_min / min(N, 2^m - m)", "page n_min (P=50)",
                      "exact?"});

  WallTimer sweep_timer;
  uint64_t exact_failures = 0;
  for (uint32_t m : {2u, 4u, 6u, 8u, 10u, 12u, 16u, 24u, 32u}) {
    QuestConfig gen;
    gen.num_items = m;
    gen.num_transactions = num_transactions;
    gen.avg_transaction_size = std::max(2.0, m / 4.0);
    gen.avg_pattern_size = std::max(2.0, m / 8.0);
    gen.num_patterns = std::max(2u, m / 2);
    gen.seed = seed;
    StatusOr<TransactionDatabase> db = GenerateQuest(gen);
    OSSM_CHECK(db.ok()) << db.status().ToString();

    uint64_t cap = ConfigurationSpaceSize(m);
    uint64_t n_min = MinimumSegments(*db);
    uint64_t bound = std::min<uint64_t>(num_transactions, cap);

    StatusOr<PageLayout> layout =
        MakePageLayout(*db, std::max<uint64_t>(1, num_transactions / 50));
    OSSM_CHECK(layout.ok());
    PageItemCounts pages(*db, *layout);
    uint64_t page_n_min = MinimumSegmentsForPages(pages);

    // Exactness check (exhaustive only where feasible).
    std::string exact = "-";
    if (m <= 12) {
      std::vector<Segment> segments = BuildExactSegments(*db);
      SegmentSupportMap map =
          SegmentSupportMap::FromSegments(std::span<const Segment>(segments));
      bool all_exact = true;
      for (uint32_t mask = 1; mask < (1u << m); ++mask) {
        Itemset items;
        for (uint32_t i = 0; i < m; ++i) {
          if (mask & (1u << i)) items.push_back(i);
        }
        if (map.UpperBound(items) != TrueSupport(*db, items)) {
          all_exact = false;
          break;
        }
      }
      exact = all_exact ? "yes" : "NO (bug)";
      if (!all_exact) ++exact_failures;
    }

    std::string point(1, 'm');
    point += std::to_string(m);
    reporter.AddResult("n_min." + point, static_cast<double>(n_min));
    reporter.AddResult("page_n_min." + point,
                       static_cast<double>(page_n_min));
    reporter.AddResult("n_min_ratio." + point,
                       static_cast<double>(n_min) /
                           static_cast<double>(bound));

    table.AddRow({std::to_string(m),
                  cap == UINT64_MAX ? "2^m - m" : std::to_string(cap),
                  std::to_string(n_min),
                  TablePrinter::FormatDouble(
                      static_cast<double>(n_min) / static_cast<double>(bound),
                      3),
                  std::to_string(page_n_min), exact});
  }

  reporter.AddPhaseSeconds("sweep", sweep_timer.ElapsedSeconds());
  reporter.AddResult("exact_failures", static_cast<double>(exact_failures));

  table.Print(std::cout);
  std::printf(
      "\nexpected shape: the ratio column stays near 1 while 2^m - m binds"
      "\n(small m), then n_min tracks the data rather than the cap; the"
      "\nexactness column must read 'yes' everywhere it is checked.\n");
  return reporter.Finish();
}

}  // namespace
}  // namespace ossm

int main(int argc, char** argv) { return ossm::Run(argc, argv); }

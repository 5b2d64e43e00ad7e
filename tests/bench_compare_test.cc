#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/report.h"

namespace ossm {
namespace obs {
namespace {

RunReport BaseReport() {
  RunReport report;
  report.name = "bench.unit";
  report.environment.threads = 4;
  report.AddPhaseSeconds("mine", 2.0);
  report.AddResult("c2_plain", 813);
  return report;
}

const MetricComparison* FindRow(const ReportComparison& comparison,
                                std::string_view metric) {
  for (const MetricComparison& row : comparison.rows) {
    if (row.metric == metric) return &row;
  }
  return nullptr;
}

std::string Printed(const ReportComparison& comparison) {
  std::ostringstream out;
  PrintComparison(comparison, out);
  return out.str();
}

TEST(BenchCompareTest, IdenticalReportsAreCleanAndExitZero) {
  RunReport report = BaseReport();
  report.AddValue("speedup", 3.0);
  report.metrics.counters = {{"apriori.candidates_counted", 1000}};
  ReportComparison comparison = CompareReports(report, report);
  EXPECT_EQ(comparison.differing, 0);
  EXPECT_EQ(comparison.missing, 0);
  EXPECT_EQ(FindRow(comparison, "result.c2_plain")->verdict,
            MetricVerdict::kSame);
  EXPECT_FALSE(comparison.ShouldFail());
}

TEST(BenchCompareTest, ResultOffByOneUnitFailsTheGate) {
  RunReport baseline = BaseReport();
  RunReport candidate = BaseReport();
  candidate.results[0].second = 812;
  ReportComparison comparison = CompareReports(baseline, candidate);
  const MetricComparison* row = FindRow(comparison, "result.c2_plain");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->verdict, MetricVerdict::kDiffers);
  EXPECT_EQ(comparison.differing, 1);
  EXPECT_TRUE(comparison.ShouldFail());
  EXPECT_NE(Printed(comparison).find("DIFFERS"), std::string::npos);
}

TEST(BenchCompareTest, FractionalResultsCompareExactly) {
  RunReport baseline = BaseReport();
  baseline.AddResult("c2_fraction.Greedy.n40", 0.58228);
  RunReport candidate = BaseReport();
  candidate.AddResult("c2_fraction.Greedy.n40", 0.58228 + 1e-12);
  EXPECT_TRUE(CompareReports(baseline, candidate).ShouldFail());
}

TEST(BenchCompareTest, MissingResultFailsTheGate) {
  RunReport baseline = BaseReport();
  RunReport candidate = BaseReport();
  candidate.results.clear();
  ReportComparison comparison = CompareReports(baseline, candidate);
  const MetricComparison* row = FindRow(comparison, "result.c2_plain");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->verdict, MetricVerdict::kMissing);
  EXPECT_FALSE(row->candidate.has_value());
  EXPECT_EQ(comparison.missing, 1);
  EXPECT_TRUE(comparison.ShouldFail());
}

// Fewer patterns must never read as saved work: a run that lost 10% of its
// patterns and every level-3 pattern fails, whatever its counters say.
TEST(BenchCompareTest, LostPatternsFailTheGate) {
  RunReport baseline = BaseReport();
  baseline.AddResult("patterns", 600);
  baseline.AddResult("patterns.level3", 40);
  baseline.metrics.counters = {{"dhp.level3.frequent", 80},
                               {"dhp.patterns", 1200}};
  RunReport candidate = BaseReport();
  candidate.AddResult("patterns", 540);
  candidate.AddResult("patterns.level3", 0);
  candidate.metrics.counters = {{"dhp.level3.frequent", 0},
                                {"dhp.patterns", 1080}};
  ReportComparison comparison = CompareReports(baseline, candidate);
  EXPECT_EQ(comparison.differing, 2);
  EXPECT_TRUE(comparison.ShouldFail());
}

TEST(BenchCompareTest, PhaseAndValueDeltasArePrintedAndNeverGate) {
  RunReport baseline = BaseReport();
  baseline.AddValue("speedup", 4.0);
  RunReport candidate = BaseReport();
  candidate.phases[0].second = 20.0;  // 10x slower
  candidate.AddValue("speedup", 2.0);
  ReportComparison comparison = CompareReports(baseline, candidate);
  const MetricComparison* phase = FindRow(comparison, "phase.mine");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->verdict, MetricVerdict::kMeasured);
  EXPECT_EQ(*phase->candidate, 20.0);
  EXPECT_EQ(FindRow(comparison, "value.speedup")->verdict,
            MetricVerdict::kMeasured);
  EXPECT_FALSE(comparison.ShouldFail());
  std::string printed = Printed(comparison);
  EXPECT_NE(printed.find("+900.0%"), std::string::npos);
  EXPECT_NE(printed.find("-50.0%"), std::string::npos);
}

TEST(BenchCompareTest, CountersAndSpanHistogramsAreNotCompared) {
  HistogramSnapshot span;
  span.sum = 1000000;
  RunReport baseline = BaseReport();
  baseline.metrics.counters = {{"apriori.candidates_counted", 1000},
                               {"apriori.pruned_by_bound", 1000}};
  baseline.metrics.histograms = {{"span.apriori.count_pass", span}};
  RunReport candidate = BaseReport();
  span.sum = 3000000;
  candidate.metrics.counters = {{"apriori.candidates_counted", 1100}};
  candidate.metrics.histograms = {{"span.apriori.count_pass", span}};
  ReportComparison comparison = CompareReports(baseline, candidate);
  // One result and one phase; nothing from the registry snapshot.
  EXPECT_EQ(comparison.rows.size(), 2u);
  EXPECT_FALSE(comparison.ShouldFail());
}

TEST(BenchCompareTest, NewMetricIsInformationalOnly) {
  RunReport baseline = BaseReport();
  RunReport candidate = BaseReport();
  candidate.AddValue("footprint_kb", 512);
  ReportComparison comparison = CompareReports(baseline, candidate);
  const MetricComparison* row = FindRow(comparison, "value.footprint_kb");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->verdict, MetricVerdict::kNew);
  EXPECT_FALSE(row->baseline.has_value());
  EXPECT_FALSE(comparison.ShouldFail());
}

TEST(BenchCompareTest, PoolCountersAreNeutralAndNeverGate) {
  RunReport baseline = BaseReport();
  baseline.metrics.counters = {{"pool.tasks", 8}};
  RunReport candidate = BaseReport();
  candidate.metrics.counters = {{"pool.tasks", 64}};
  ReportComparison comparison = CompareReports(baseline, candidate);
  EXPECT_EQ(FindRow(comparison, "counter.pool.tasks"), nullptr);
  EXPECT_FALSE(comparison.ShouldFail());
}

TEST(BenchCompareTest, MismatchedIdentityProducesNotes) {
  RunReport baseline = BaseReport();
  baseline.SetWorkload("transactions", uint64_t{20000});
  baseline.SetWorkload("seed", uint64_t{1});
  RunReport candidate = BaseReport();
  candidate.name = "bench.other";
  candidate.environment.threads = 8;
  candidate.SetWorkload("transactions", uint64_t{40000});
  ReportComparison comparison = CompareReports(baseline, candidate);
  // Name, thread count, changed workload key, and absent workload key.
  EXPECT_EQ(comparison.notes.size(), 4u);
  // Notes never gate on their own.
  EXPECT_FALSE(comparison.ShouldFail());
}

TEST(BenchCompareTest, PerfMetricsAbsentFromCandidateAreNoiseNotMissing) {
  // Baseline machine had a PMU, the candidate container does not: the
  // perf-derived values vanish. They are measurements, so their absence
  // is printed and never counts as a missing result.
  RunReport baseline = BaseReport();
  baseline.AddValue("count_pass_avx2_ipc", 2.0);
  baseline.metrics.counters = {{"perf.mine.cycles", 1000000}};
  RunReport candidate = BaseReport();  // no perf anywhere
  ReportComparison comparison = CompareReports(baseline, candidate);
  const MetricComparison* row =
      FindRow(comparison, "value.count_pass_avx2_ipc");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->verdict, MetricVerdict::kMeasured);
  EXPECT_FALSE(row->candidate.has_value());
  EXPECT_EQ(comparison.missing, 0);
  EXPECT_FALSE(comparison.ShouldFail());
}

TEST(BenchCompareTest, NonPerfMissingStillGatesAlongsidePerfNoise) {
  // Perf values that vanish never gate; a lost result in the same
  // comparison still does.
  RunReport baseline = BaseReport();
  baseline.AddValue("count_pass_avx2_ipc", 2.0);
  RunReport candidate = BaseReport();
  candidate.results.clear();
  ReportComparison comparison = CompareReports(baseline, candidate);
  EXPECT_EQ(comparison.missing, 1);
  EXPECT_TRUE(comparison.ShouldFail());
}

TEST(BenchCompareTest, NewMetricsAreCountedButNeverGate) {
  RunReport baseline = BaseReport();
  RunReport candidate = BaseReport();
  candidate.AddResult("patterns", 600);
  candidate.AddResult("patterns.level1", 400);
  candidate.AddValue("count_pass_avx2_ipc", 2.0);  // PMU only on candidate
  ReportComparison comparison = CompareReports(baseline, candidate);
  EXPECT_EQ(comparison.new_results, 2);
  EXPECT_FALSE(comparison.ShouldFail());
  EXPECT_NE(Printed(comparison).find("2 new (not gated)"), std::string::npos);
}

TEST(BenchCompareTest, PrintComparisonRendersSummaryLine) {
  RunReport baseline = BaseReport();
  RunReport candidate = BaseReport();
  candidate.results[0].second = 814;
  std::string printed = Printed(CompareReports(baseline, candidate));
  EXPECT_NE(printed.find("1 results compared: 1 differ, 0 missing"),
            std::string::npos);
  EXPECT_NE(printed.find("1 phases and values reported"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace ossm

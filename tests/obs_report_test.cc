#include "obs/report.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

namespace ossm {
namespace obs {
namespace {

// A fully fabricated report — no CaptureEnvironment(), no live registry —
// so the JSON rendering is identical on every machine and pinned by the
// golden file. Keep in sync with tests/testdata/run_report_golden.json.
RunReport GoldenReport() {
  RunReport report;
  report.name = "bench.fig4_speedup";
  report.environment.git_rev = "abc1234";
  report.environment.compiler = "gcc 13.2.0";
  report.environment.build_type = "release";
  report.environment.os = "linux";
  report.environment.hardware_concurrency = 8;
  report.environment.threads = 4;
  report.SetWorkload("dataset", "drifting");
  report.SetWorkload("transactions", uint64_t{20000});
  report.SetWorkload("threshold", 0.01);
  report.AddPhaseSeconds("baseline_mine", 1.25);
  report.AddPhaseSeconds("sweep", 10.5);
  report.AddValue("speedup.greedy.n160", 3.75);
  report.AddValue("c2_fraction.greedy.n160", 0.042);
  report.metrics.counters = {
      {"apriori.candidates_counted", 125000},
      {"apriori.pruned_by_bound", 90000},
  };
  report.metrics.gauges = {{"pool.queue_depth", 0}};
  HistogramSnapshot task_us;
  task_us.count = 16;
  task_us.sum = 64000;
  task_us.min = 2000;
  task_us.max = 6000;
  task_us.p50 = 3900.5;
  task_us.p95 = 5800;
  task_us.p99 = 5960;
  report.metrics.histograms = {{"pool.task_us", task_us}};
  return report;
}

std::string ReadTestdataFile(const std::string& name) {
  std::string path = std::string(OSSM_TESTDATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

std::string Render(const RunReport& report) {
  std::ostringstream out;
  WriteRunReport(report, out);
  return out.str();
}

TEST(RunReportTest, MatchesGoldenFile) {
  EXPECT_EQ(Render(GoldenReport()), ReadTestdataFile("run_report_golden.json"))
      << "RunReport JSON drifted from the golden file. The layout is a "
         "versioned contract (bench_compare and committed baselines parse "
         "it); bump kRunReportSchemaVersion when changing it deliberately.";
}

TEST(RunReportTest, WriteIsDeterministic) {
  EXPECT_EQ(Render(GoldenReport()), Render(GoldenReport()));
}

TEST(RunReportTest, ParseRoundTripsEveryField) {
  RunReport original = GoldenReport();
  StatusOr<RunReport> parsed = ParseRunReport(Render(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->schema_version, kRunReportSchemaVersion);
  EXPECT_EQ(parsed->name, original.name);
  EXPECT_EQ(parsed->environment.git_rev, "abc1234");
  EXPECT_EQ(parsed->environment.compiler, "gcc 13.2.0");
  EXPECT_EQ(parsed->environment.build_type, "release");
  EXPECT_EQ(parsed->environment.os, "linux");
  EXPECT_EQ(parsed->environment.hardware_concurrency, 8u);
  EXPECT_EQ(parsed->environment.threads, 4u);
  EXPECT_EQ(parsed->workload, original.workload);
  EXPECT_EQ(parsed->phases, original.phases);
  EXPECT_EQ(parsed->values, original.values);
  EXPECT_EQ(parsed->metrics.counters, original.metrics.counters);
  EXPECT_EQ(parsed->metrics.gauges, original.metrics.gauges);
  ASSERT_EQ(parsed->metrics.histograms.size(), 1u);
  EXPECT_EQ(parsed->metrics.histograms[0].first, "pool.task_us");
  EXPECT_EQ(parsed->metrics.histograms[0].second.count, 16u);
  EXPECT_EQ(parsed->metrics.histograms[0].second.sum, 64000u);
  EXPECT_EQ(parsed->metrics.histograms[0].second.p50, 3900.5);

  // Reprinting the parsed report reproduces the original bytes — %.6g
  // doubles survive the parse/print cycle.
  EXPECT_EQ(Render(*parsed), Render(original));
}

TEST(RunReportTest, AddPhaseSecondsAccumulatesSameName) {
  RunReport report;
  report.AddPhaseSeconds("mine", 1.0);
  report.AddPhaseSeconds("load", 0.25);
  report.AddPhaseSeconds("mine", 2.0);
  ASSERT_EQ(report.phases.size(), 2u);
  EXPECT_EQ(report.phases[0].first, "mine");
  EXPECT_EQ(report.phases[0].second, 3.0);
  EXPECT_EQ(report.phases[1].first, "load");
}

TEST(RunReportTest, SetWorkloadOverwrites) {
  RunReport report;
  report.SetWorkload("seed", uint64_t{1});
  report.SetWorkload("seed", uint64_t{2});
  ASSERT_EQ(report.workload.size(), 1u);
  EXPECT_EQ(report.workload.at("seed"), "2");
}

TEST(RunReportTest, RejectsNewerSchemaVersion) {
  std::string text = Render(GoldenReport());
  std::string needle =
      "\"schema_version\": " + std::to_string(kRunReportSchemaVersion);
  size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, needle.size(), "\"schema_version\": 999");
  StatusOr<RunReport> parsed = ParseRunReport(text);
  EXPECT_FALSE(parsed.ok());
}

// Version 1 wrote every span.* histogram a second time under
// metrics.spans; such documents (the committed baselines among them) still
// load, with the duplicate ignored.
TEST(RunReportTest, ParsesVersionOneWithSpansObject) {
  StatusOr<RunReport> parsed = ParseRunReport(R"({
  "schema_version": 1,
  "name": "bench.v1",
  "metrics": {
    "counters": {"apriori.candidates_counted": 7},
    "gauges": {},
    "histograms": {
      "span.ossm.build": {"count": 2, "sum": 3500, "min": 1500, "max": 2000, "p50": 1700.5, "p95": 1980, "p99": 1996}
    },
    "spans": {
      "ossm.build": {"count": 2, "total_us": 3500, "p50_us": 1700.5, "p95_us": 1980, "p99_us": 1996, "max_us": 2000}
    }
  }
})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->schema_version, 1);
  EXPECT_EQ(parsed->name, "bench.v1");
  ASSERT_EQ(parsed->metrics.counters.size(), 1u);
  EXPECT_EQ(parsed->metrics.counters[0].second, 7u);
  ASSERT_EQ(parsed->metrics.histograms.size(), 1u);
  EXPECT_EQ(parsed->metrics.histograms[0].first, "span.ossm.build");
  EXPECT_EQ(parsed->metrics.histograms[0].second.sum, 3500u);
}

TEST(RunReportTest, RejectsNonReportDocuments) {
  EXPECT_FALSE(ParseRunReport("[]").ok());
  EXPECT_FALSE(ParseRunReport("{}").ok());
  EXPECT_FALSE(ParseRunReport("not json").ok());
}

TEST(RunReportTest, SaveAndLoadFile) {
  std::string path =
      testing::TempDir() + "/ossm_run_report_test_roundtrip.json";
  RunReport original = GoldenReport();
  ASSERT_TRUE(SaveRunReportFile(original, path).ok());
  StatusOr<RunReport> loaded = LoadRunReportFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Render(*loaded), Render(original));
  std::remove(path.c_str());

  EXPECT_FALSE(LoadRunReportFile("/nonexistent/nowhere.json").ok());
}

TEST(RunReportTest, MakeRunReportCapturesEnvironment) {
  RunReport report = MakeRunReport("smoke");
  EXPECT_EQ(report.name, "smoke");
  EXPECT_EQ(report.schema_version, kRunReportSchemaVersion);
  EXPECT_FALSE(report.environment.compiler.empty());
  EXPECT_FALSE(report.environment.os.empty());
  EXPECT_GE(report.environment.threads, 1u);
}

}  // namespace
}  // namespace obs
}  // namespace ossm

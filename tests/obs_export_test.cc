#include "obs/export.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ossm {
namespace obs {
namespace {

// A fixed snapshot whose JSON rendering is pinned by the golden file in
// tests/testdata/. Keep in sync with metrics_report_golden.json.
MetricsSnapshot GoldenSnapshot() {
  MetricsSnapshot snapshot;
  snapshot.counters = {
      {"apriori.level2.candidates_generated", 292},
      {"apriori.level2.pruned_by_bound", 150},
      {"io.bytes_read", 4096},
  };
  snapshot.gauges = {
      {"ossm.pages", 300},
      {"ossm.segments", 40},
  };
  HistogramSnapshot read_size;
  read_size.count = 3;
  read_size.sum = 7168;
  read_size.min = 1024;
  read_size.max = 4096;
  read_size.p50 = 2048;
  read_size.p95 = 4000;
  read_size.p99 = 4090;
  HistogramSnapshot build_span;
  build_span.count = 2;
  build_span.sum = 3500;
  build_span.min = 1500;
  build_span.max = 2000;
  build_span.p50 = 1700.5;
  build_span.p95 = 1980;
  build_span.p99 = 1996;
  snapshot.histograms = {
      {"io.read_size", read_size},
      {"span.ossm.build", build_span},
  };
  return snapshot;
}

std::string ReadTestdataFile(const std::string& name) {
  std::string path = std::string(OSSM_TESTDATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

TEST(JsonEscapeTest, PassesPlainTextThrough) {
  EXPECT_EQ(JsonEscape("apriori.level2"), "apriori.level2");
}

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonReportTest, MatchesGoldenFile) {
  std::ostringstream out;
  WriteJsonReport(GoldenSnapshot(), out);
  EXPECT_EQ(out.str(), ReadTestdataFile("metrics_report_golden.json"));
}

TEST(JsonReportTest, EmptySnapshotIsStillValidJson) {
  std::ostringstream out;
  WriteJsonReport(MetricsSnapshot{}, out);
  EXPECT_EQ(out.str(),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n"
            "  \"histograms\": {}\n}\n");
}

TEST(TextReportTest, ContainsSectionsAndStrippedSpanNames) {
  std::ostringstream out;
  WriteTextReport(GoldenSnapshot(), out);
  std::string text = out.str();
  EXPECT_NE(text.find("== OSSM metrics report =="), std::string::npos);
  EXPECT_NE(text.find("counters"), std::string::npos);
  EXPECT_NE(text.find("apriori.level2.candidates_generated"),
            std::string::npos);
  EXPECT_NE(text.find("gauges"), std::string::npos);
  EXPECT_NE(text.find("histograms"), std::string::npos);
  EXPECT_NE(text.find("spans (durations in us)"), std::string::npos);
  // The span table lists the name without the "span." storage prefix.
  EXPECT_NE(text.find("ossm.build"), std::string::npos);
}

TEST(TextReportTest, EmptySnapshotPrintsHeaderOnly) {
  std::ostringstream out;
  WriteTextReport(MetricsSnapshot{}, out);
  EXPECT_EQ(out.str(), "== OSSM metrics report ==\n");
}

TEST(ChromeTraceTest, WritesCompleteEvents) {
  std::vector<TraceEvent> events;
  events.push_back({"apriori.mine", 0, 10, 100, 0});
  events.push_back({"apriori.count_pass", 0, 20, 50, 1});
  std::ostringstream out;
  WriteChromeTrace(events, out);
  EXPECT_EQ(
      out.str(),
      "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
      "  {\"name\": \"apriori.mine\", \"cat\": \"ossm\", \"ph\": \"X\", "
      "\"ts\": 10, \"dur\": 100, \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"depth\": 0}},\n"
      "  {\"name\": \"apriori.count_pass\", \"cat\": \"ossm\", \"ph\": "
      "\"X\", \"ts\": 20, \"dur\": 50, \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"depth\": 1}}\n"
      "]}\n");
}

TEST(ChromeTraceTest, EmptyTraceIsValid) {
  std::ostringstream out;
  WriteChromeTrace({}, out);
  EXPECT_EQ(out.str(),
            "{\"displayTimeUnit\": \"ms\", \"traceEvents\": []}\n");
}

}  // namespace
}  // namespace obs
}  // namespace ossm

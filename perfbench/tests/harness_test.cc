// Tests of the benchmark's own harness: percentiles and the tail rule, the
// open-loop schedule, reply judging and outcome accounting, the latency
// reservoir and latency windows, span self times and the result line.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "harness.h"
#include "spans.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> values;
  for (int i = 1; i <= n; ++i) values.push_back(i);
  return values;
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v = OneTo(100);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 90), 90);
  EXPECT_EQ(Percentile(v, 99.9), 100);
  EXPECT_EQ(Percentile(v, 0), 1);
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Percentile({7.5}, 99), 7.5);
}

TEST(PercentileTest, SamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(100, 99), 1u);
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(0, 50), 0u);
}

TEST(TailTest, KeepsPreferredPercentileWithTenBeyond) {
  TailPick pick = PickTail(OneTo(1000), 99);
  EXPECT_FALSE(pick.degraded);
  EXPECT_EQ(pick.percentile, 99);
  EXPECT_EQ(pick.value, 990);
  EXPECT_EQ(pick.samples, 1000u);
  EXPECT_EQ(pick.beyond, 10u);
}

TEST(TailTest, StepsDownWhenTooFewSamplesLieBeyond) {
  // p99 of 500 leaves 5 beyond; p95 leaves 25.
  TailPick pick = PickTail(OneTo(500), 99);
  EXPECT_TRUE(pick.degraded);
  EXPECT_EQ(pick.percentile, 95);
  EXPECT_EQ(pick.value, 475);
  EXPECT_GE(pick.beyond, kMinTailBeyond);
  // 40 ops: p90 leaves 4 beyond, p75 exactly 10.
  pick = PickTail(OneTo(40), 90);
  EXPECT_EQ(pick.percentile, 75);
  EXPECT_EQ(pick.beyond, 10u);
  // Nothing has ten beyond: the median, flagged.
  pick = PickTail(OneTo(8), 90);
  EXPECT_TRUE(pick.degraded);
  EXPECT_EQ(pick.percentile, 50);
}

TEST(OpenLoopTest, LatencyIsTimedFromTheScheduledSend) {
  OpenLoopSchedule schedule{2'000'000};  // 500 per second
  EXPECT_EQ(schedule.DueNs(0), 0);
  EXPECT_EQ(schedule.DueNs(3), 6'000'000);
  EXPECT_EQ(schedule.CountWithin(1'000'000'000), 500u);
  EXPECT_EQ(schedule.CountWithin(1'000'000'001), 501u);
  EXPECT_EQ(schedule.CountWithin(0), 0u);
  // Request 3 is due at 6 ms, sent 5 ms late and answered 1 ms after
  // that: its latency includes the generator's stall.
  int64_t start = 100'000'000;
  int64_t sent = start + 11'000'000;
  int64_t reply = sent + 1'000'000;
  EXPECT_DOUBLE_EQ(schedule.LatenessMs(start, 3, sent), 5.0);
  EXPECT_DOUBLE_EQ(schedule.LatencyMs(start, 3, reply), 6.0);
}

TEST(ReplyTest, Parses) {
  Reply ok = ParseReply("OK 412 exact");
  EXPECT_EQ(ok.kind, Reply::Kind::kExact);
  EXPECT_EQ(ok.value, 412u);
  EXPECT_EQ(ParseReply("OK 3 singleton\r").kind, Reply::Kind::kSingleton);
  EXPECT_EQ(ParseReply("OK 3 cache").kind, Reply::Kind::kCache);
  Reply rj = ParseReply("RJ 17");
  EXPECT_EQ(rj.kind, Reply::Kind::kReject);
  EXPECT_EQ(rj.value, 17u);
  EXPECT_EQ(ParseReply("ERR resource exhausted: queue full").kind,
            Reply::Kind::kError);
  EXPECT_EQ(ParseReply("OK 3 warp").kind, Reply::Kind::kMalformed);
  EXPECT_EQ(ParseReply("OK x exact").kind, Reply::Kind::kMalformed);
  EXPECT_EQ(ParseReply("RJ").kind, Reply::Kind::kMalformed);
  EXPECT_EQ(ParseReply("").kind, Reply::Kind::kMalformed);
}

TEST(JudgeTest, ExactAnswersMustMatchAndRejectsMustBeSound) {
  const uint64_t minsup = 100;
  EXPECT_EQ(Judge(ParseReply("OK 250 exact"), 250, minsup), Outcome::kOk);
  EXPECT_EQ(Judge(ParseReply("OK 251 exact"), 250, minsup), Outcome::kWrong);
  EXPECT_EQ(Judge(ParseReply("OK 40 cache"), 40, minsup), Outcome::kOk);
  // A reject is right only for an infrequent itemset whose bound holds.
  EXPECT_EQ(Judge(ParseReply("RJ 90"), 60, minsup), Outcome::kOk);
  EXPECT_EQ(Judge(ParseReply("RJ 50"), 60, minsup), Outcome::kWrong);
  EXPECT_EQ(Judge(ParseReply("RJ 99"), 120, minsup), Outcome::kWrong);
  EXPECT_EQ(Judge(ParseReply("ERR backpressure"), 60, minsup),
            Outcome::kError);
  EXPECT_EQ(Judge(ParseReply("garbage"), 60, minsup), Outcome::kWrong);
}

TEST(TallyTest, AWrongAnswerLowersOkShare) {
  const uint64_t minsup = 10;
  std::vector<uint64_t> truth = {5, 12, 40, 3};
  std::vector<std::string> replies = {"RJ 9", "OK 12 exact", "OK 40 cache",
                                      "RJ 3"};
  Tally clean;
  for (size_t i = 0; i < truth.size(); ++i) {
    clean.Add(Judge(ParseReply(replies[i]), truth[i], minsup));
  }
  EXPECT_EQ(clean.ok_share(), 1.0);
  EXPECT_EQ(clean.failed(), 0u);

  replies[2] = "OK 41 cache";  // the injected wrong answer
  Tally injected;
  for (size_t i = 0; i < truth.size(); ++i) {
    injected.Add(Judge(ParseReply(replies[i]), truth[i], minsup));
  }
  EXPECT_EQ(injected.attempted(), 4u);
  EXPECT_EQ(injected.failed(), 1u);
  EXPECT_EQ(injected.count(Outcome::kWrong), 1u);
  EXPECT_DOUBLE_EQ(injected.ok_share(), 0.75);
}

TEST(TallyTest, MissingRepliesAndErrorsAreFailures) {
  Tally tally;
  tally.Add(Outcome::kOk, 6);
  tally.Add(Outcome::kError);
  tally.Add(Outcome::kMissing, 3);
  EXPECT_EQ(tally.attempted(), 10u);
  EXPECT_EQ(tally.failed(), 4u);
  EXPECT_DOUBLE_EQ(tally.ok_share(), 0.6);
  EXPECT_EQ(Tally().ok_share(), 0.0);
}

TEST(ReservoirTest, KeepsAllUpToCapacityThenABoundedSeededSample) {
  LatencyReservoir small(100, 7);
  for (int i = 0; i < 50; ++i) small.Add(50 - i);
  EXPECT_EQ(small.Sorted(), OneTo(50));

  LatencyReservoir a(64, 7), b(64, 7);
  for (int i = 0; i < 10000; ++i) {
    a.Add(i);
    b.Add(i);
  }
  EXPECT_EQ(a.seen(), 10000u);
  EXPECT_EQ(a.Sorted().size(), 64u);
  EXPECT_EQ(a.Sorted(), b.Sorted());
  // A uniform sample of 0..9999 does not sit in the first 64 values.
  EXPECT_GT(Percentile(a.Sorted(), 50), 1000);
}

TEST(RateWindowsTest, MedianOfClosedWindowsIgnoresOneSlowWindow) {
  const int64_t second = 1'000'000'000;
  RateWindows windows(5 * second, second);
  windows.Add(4 * second);  // before the start: ignored
  for (int w = 0; w < 5; ++w) {
    int per_window = w == 2 ? 10 : 100;  // one window the host stalled
    for (int i = 0; i < per_window; ++i) {
      windows.Add(5 * second + w * second + i * (second / per_window));
    }
  }
  windows.Add(10 * second + second / 2);  // a window still open at the end
  EXPECT_EQ(windows.Rates(10 * second + second / 2).size(), 5u);
  EXPECT_EQ(windows.MedianRate(10 * second + second / 2), 100.0);
  // No window closed yet: the whole-run rate.
  RateWindows young(0, second);
  for (int i = 0; i < 30; ++i) young.Add(i * 10'000'000);
  EXPECT_DOUBLE_EQ(young.MedianRate(second / 2), 60.0);
}

TEST(LatencyWindowsTest, MediansOverWindowsIgnoreOneNoisyWindow) {
  const int64_t second = 1'000'000'000;
  LatencyWindows windows(5 * second, second, 1000, 7);
  windows.Add(4 * second, 99.0);  // before the start: ignored
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 100; ++i) {
      // Window 2 is the one the host stalled: every latency 10x.
      double ms = w == 2 ? 10.0 * i : i;
      windows.Add(5 * second + w * second + i * (second / 200), ms);
    }
  }
  windows.Add(10 * second + second / 2, 1.0);  // a window still open
  std::vector<std::vector<double>> closed = windows.Sorted(10 * second);
  ASSERT_EQ(closed.size(), 5u);
  EXPECT_EQ(closed[0], OneTo(100));

  LatencySummary summary = SummarizeWindows(closed, 75);
  EXPECT_EQ(summary.windows, 5u);
  EXPECT_EQ(summary.p50_ms, 50);
  EXPECT_EQ(summary.tail.percentile, 75);
  EXPECT_EQ(summary.tail.value, 75);
  EXPECT_EQ(summary.tail.samples, 100u);
  EXPECT_EQ(summary.tail.beyond, 25u);
  // Over the whole pass the stalled window drags p75 up.
  std::vector<double> all;
  for (const std::vector<double>& window : closed) {
    all.insert(all.end(), window.begin(), window.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_GT(SummarizeLatencies(all, 75).tail.value, 75);

  // No window closed yet: the open ones.
  EXPECT_EQ(windows.Sorted(5 * second).size(), 6u);
}

TEST(LatencyWindowsTest, TailRuleHoldsInTheSmallestWindow) {
  // p90 of 50 leaves 5 beyond, so every window steps down to p75 (12
  // beyond in the smallest window).
  LatencySummary summary = SummarizeWindows({OneTo(200), OneTo(50), {}}, 90);
  EXPECT_TRUE(summary.tail.degraded);
  EXPECT_EQ(summary.tail.percentile, 75);
  EXPECT_EQ(summary.tail.samples, 50u);
  EXPECT_GE(summary.tail.beyond, kMinTailBeyond);
  EXPECT_EQ(summary.windows, 2u);  // the empty window is skipped
  EXPECT_EQ(summary.tail.value, (150 + 38) / 2.0);
  EXPECT_EQ(SummarizeWindows({}, 75).windows, 0u);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> spans = {
      {"setup", 0, 100, -1, 0},
      {"data.load", 10, 30, 0, 0},
      {"core.build", 20, 60, 0, 0},    // overlaps data.load
      {"serve.start", 90, 130, 0, 0},  // runs past its parent
      {"other", 0, 100, -1, 0},
  };
  EXPECT_EQ(SelfTimeNs(spans, 0), 100 - 50 - 10);
  EXPECT_EQ(SelfTimeNs(spans, 1), 20);
  EXPECT_EQ(SelfTimeNs(spans, 4), 100);
}

TEST(SpanTest, LogRecordsOnlyWhenEnabled) {
  SpanLog off(false);
  { ScopedSpan span(&off, "x"); }
  EXPECT_TRUE(off.Snapshot().empty());

  SpanLog on(true);
  int32_t root = on.Add("setup", 0, 1'000'000);
  on.Add("data.load", 0, 400'000, root, 7);
  std::vector<Span> spans = on.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_EQ(on.SelfMs("setup"), std::vector<double>{0.6});
  EXPECT_EQ(on.SelfMs("data.load"), std::vector<double>{0.4});
}

TEST(OutputTest, ResultLineCarriesEveryMetricWithItsUnit) {
  std::string line = ResultLine(
      true, 1000, 0, {{"p50_ms", 1.25, "ms"}, {"ops_per_s", 497.5, "1/s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
            "\"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
            "\"ops_per_s\": {\"value\": 497.5, \"unit\": \"1/s\"}}}");
  EXPECT_EQ(FormatNumber(0.1), "0.1");
  EXPECT_EQ(FormatNumber(1.0 / 3.0), "0.3333333333333333");
}

}  // namespace
}  // namespace perfbench

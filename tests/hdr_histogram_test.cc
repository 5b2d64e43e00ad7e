#include "obs/hdr_histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "common/random.h"

namespace ossm {
namespace obs {
namespace {

// Exact p-quantile of a sorted sample under the shared convention: rank
// ceil(p*n) clamped to [1, n], 1-based.
uint64_t ExactPercentile(const std::vector<uint64_t>& sorted, double p) {
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

TEST(HdrBucketLayoutTest, IndexIsMonotoneAndBoundsHoldTheValue) {
  size_t previous = 0;
  const uint64_t probes[] = {0,     1,    31,    32,      33,
                             63,    64,   100,   1023,    1024,
                             65535, 1000000, 1ull << 40, UINT64_MAX - 1,
                             UINT64_MAX};
  for (uint64_t value : probes) {
    size_t index = HdrBucketLayout::BucketIndex(value);
    ASSERT_LT(index, HdrBucketLayout::kNumBuckets) << value;
    EXPECT_GE(index, previous) << value;
    previous = index;
    EXPECT_LE(HdrBucketLayout::BucketLower(index), value) << value;
    EXPECT_GE(HdrBucketLayout::BucketUpper(index), value) << value;
  }
}

TEST(HdrBucketLayoutTest, SmallValuesGetExactBuckets) {
  for (uint64_t value = 0; value < 32; ++value) {
    size_t index = HdrBucketLayout::BucketIndex(value);
    EXPECT_EQ(HdrBucketLayout::BucketLower(index), value);
    EXPECT_EQ(HdrBucketLayout::BucketUpper(index), value);
  }
}

TEST(HdrBucketLayoutTest, RelativeBucketWidthIsWithinDocumentedBound) {
  Rng rng(7);
  for (int trial = 0; trial < 20000; ++trial) {
    // Log-uniform draw so every magnitude is exercised.
    uint64_t value = rng.Next() >> rng.UniformInt(64);
    if (value < 32) continue;
    size_t index = HdrBucketLayout::BucketIndex(value);
    double lower = static_cast<double>(HdrBucketLayout::BucketLower(index));
    double upper = static_cast<double>(HdrBucketLayout::BucketUpper(index));
    EXPECT_LE((upper - lower) / lower,
              HdrBucketLayout::PercentileErrorBound() + 1e-12)
        << value;
  }
}

TEST(HdrHistogramTest, TracksCountSumMinMax) {
  HdrHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), UINT64_MAX);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
  h.Record(5);
  h.Record(1000);
  h.Record(5);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1010u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 1000u);

  // Both ends of the value range land in a bucket of a live histogram.
  HdrHistogram extremes;
  extremes.Record(0);
  extremes.Record(UINT64_MAX);
  EXPECT_EQ(extremes.count(), 2u);
  EXPECT_EQ(extremes.min(), 0u);
  EXPECT_EQ(extremes.max(), UINT64_MAX);
  EXPECT_EQ(extremes.Percentile(0.5), 0.0);
  const double top = static_cast<double>(UINT64_MAX);
  EXPECT_LE(std::abs(extremes.Percentile(1.0) - top) / top,
            HdrBucketLayout::PercentileErrorBound());

  // One sample is every percentile: the clamp to [min, max] pins it even
  // where its bucket is wider than one value.
  for (uint64_t value : {uint64_t{7}, uint64_t{1000}}) {
    HdrHistogram single;
    single.Record(value);
    for (double p : {0.0, 0.5, 0.99, 1.0}) {
      EXPECT_EQ(single.Percentile(p), static_cast<double>(value))
          << "value=" << value << " p=" << p;
    }
  }
}

TEST(HdrHistogramTest, SmallValuesReportExactPercentiles) {
  HdrHistogram h;
  for (uint64_t v = 0; v < 32; ++v) h.Record(v);
  // With one sample per value, the p-quantile is value ceil(32p) - 1.
  EXPECT_EQ(h.Percentile(0.5), 15.0);
  EXPECT_EQ(h.Percentile(1.0), 31.0);
  EXPECT_EQ(h.Percentile(0.0), 0.0);
}

// The property the exporter relies on: across seeded distributions, every
// reported percentile stays within the documented relative error of the
// exact sorted-sample percentile (exact below 32, <= 1/32 relative above).
TEST(HdrHistogramTest, PercentilesTrackExactSortedSamples) {
  struct Case {
    const char* name;
    uint64_t seed;
    int draws;
  };
  for (const Case& c : {Case{"uniform", 11, 0}, Case{"exponential", 12, 1},
                        Case{"lognormal", 13, 2}, Case{"constant", 14, 3}}) {
    SCOPED_TRACE(c.name);
    Rng rng(c.seed);
    HdrHistogram h;
    std::vector<uint64_t> samples;
    for (int i = 0; i < 20000; ++i) {
      uint64_t value = 0;
      switch (c.draws) {
        case 0: value = rng.UniformInt(500000); break;
        case 1: value = static_cast<uint64_t>(rng.Exponential(900.0)); break;
        case 2:
          value = static_cast<uint64_t>(std::exp(rng.Gaussian(8.0, 2.5)));
          break;
        default: value = 42; break;
      }
      samples.push_back(value);
      h.Record(value);
    }
    std::sort(samples.begin(), samples.end());
    for (double p : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
      uint64_t exact = ExactPercentile(samples, p);
      double estimate = h.Percentile(p);
      if (exact < 32) {
        EXPECT_EQ(estimate, static_cast<double>(exact)) << "p=" << p;
      } else {
        double rel = std::abs(estimate - static_cast<double>(exact)) /
                     static_cast<double>(exact);
        EXPECT_LE(rel, HdrBucketLayout::PercentileErrorBound() + 1e-9)
            << "p=" << p << " exact=" << exact << " estimate=" << estimate;
      }
    }
  }
}

TEST(HdrSnapshotTest, MergeAndSubtractAreInverse) {
  HdrHistogram h;
  for (uint64_t v : {1ull, 40ull, 900ull}) h.Record(v);
  HdrSnapshot before = h.Snapshot();
  h.Record(5000);
  h.Record(41);
  HdrSnapshot after = h.Snapshot();

  HdrSnapshot delta = after;
  delta.SubtractBaseline(before);
  EXPECT_EQ(delta.count(), 2u);
  EXPECT_EQ(delta.sum(), 5041u);
  EXPECT_EQ(HdrBucketLayout::BucketIndex(
                static_cast<uint64_t>(delta.Percentile(1.0))),
            HdrBucketLayout::BucketIndex(5000));

  HdrSnapshot rebuilt = before;
  rebuilt.MergeFrom(delta);
  EXPECT_EQ(rebuilt.count(), after.count());
  EXPECT_EQ(rebuilt.sum(), after.sum());
  EXPECT_EQ(rebuilt.Percentile(0.5), after.Percentile(0.5));
}

TEST(HdrSnapshotTest, EmptySnapshotIsNeutral) {
  HdrSnapshot empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.Percentile(0.99), 0.0);
  HdrSnapshot other;
  other.Record(77);
  other.MergeFrom(empty);
  EXPECT_EQ(other.count(), 1u);
  other.SubtractBaseline(empty);
  EXPECT_EQ(other.count(), 1u);
}

TEST(HdrHistogramTest, ConcurrentRecordsAllLand) {
  HdrHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t * 1000 + (i % 997)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  // Percentiles stay inside the recorded range even under concurrency.
  double p99 = h.Percentile(0.99);
  EXPECT_GE(p99, 0.0);
  EXPECT_LE(p99, static_cast<double>(h.max()));
}

}  // namespace
}  // namespace obs
}  // namespace ossm

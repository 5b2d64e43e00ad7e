#include "obs/metrics.h"

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ossm {
namespace obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Add();  // default delta is 1
  EXPECT_EQ(counter.value(), 1u);
  counter.Add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsAllLand) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) counter.Add();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(GaugeTest, SetAndAddBothWays) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0);
  gauge.Set(100);
  EXPECT_EQ(gauge.value(), 100);
  gauge.Add(-150);
  EXPECT_EQ(gauge.value(), -50);
  gauge.Set(7);
  EXPECT_EQ(gauge.value(), 7);
}

TEST(MetricsRegistryTest, SameNameSameInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("miner.candidates");
  Counter& b = registry.GetCounter("miner.candidates");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.value(), 3u);

  Gauge& g1 = registry.GetGauge("pages");
  Gauge& g2 = registry.GetGauge("pages");
  EXPECT_EQ(&g1, &g2);

  HdrHistogram& h1 = registry.GetHistogram("span.x");
  HdrHistogram& h2 = registry.GetHistogram("span.x");
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistryTest, NamespacesAreIndependent) {
  MetricsRegistry registry;
  registry.GetCounter("x").Add(1);
  registry.GetGauge("x").Set(2);
  registry.GetHistogram("x").Record(3);
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].second, 1u);
  EXPECT_EQ(snapshot.gauges[0].second, 2);
  EXPECT_EQ(snapshot.histograms[0].second.sum, 3u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("zeta").Add(1);
  registry.GetCounter("alpha").Add(2);
  registry.GetCounter("mid").Add(3);
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].first, "alpha");
  EXPECT_EQ(snapshot.counters[1].first, "mid");
  EXPECT_EQ(snapshot.counters[2].first, "zeta");
}

TEST(MetricsRegistryTest, SnapshotComputesHistogramQuantiles) {
  MetricsRegistry registry;
  HdrHistogram& histogram = registry.GetHistogram("lat");
  for (uint64_t v = 1; v <= 100; ++v) histogram.Record(v);
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const HistogramSnapshot& h = snapshot.histograms[0].second;
  EXPECT_EQ(h.count, 100u);
  EXPECT_EQ(h.min, 1u);
  EXPECT_EQ(h.max, 100u);
  EXPECT_LE(h.p50, h.p95);
  EXPECT_LE(h.p95, h.p99);
}

TEST(MetricsRegistryTest, ConcurrentLookupsAndIncrements) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Every thread resolves by name each round: exercises the map mutex
      // against the lock-free increments.
      for (int i = 0; i < kIncrements; ++i) {
        registry.GetCounter("shared.counter").Add();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.GetCounter("shared.counter").value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsRegistryTest, GlobalIsAProcessSingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

}  // namespace
}  // namespace obs
}  // namespace ossm

#ifndef OSSM_OBS_METRICS_H_
#define OSSM_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/hdr_histogram.h"

namespace ossm {
namespace obs {

// A monotonically increasing event count (candidates generated, bytes read,
// bound evaluations, ...). All operations are lock-free; concurrent miners
// may increment the same counter from any thread.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// A value that can move both ways (resident pages, live segments, ...).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Point-in-time views handed to the exporters.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

struct MetricsSnapshot {
  // All three are sorted by name so exports are deterministic.
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

// Name -> instrument map. Lookup takes a mutex; the returned references are
// stable for the registry's lifetime, so hot paths resolve an instrument
// once (see the OSSM_COUNTER_* macros in obs.h) and then update it
// lock-free. The process-wide instance lives behind Global(); separate
// instances exist so tests can drive the exporters deterministically.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  // Histogram instruments are HDR log-linear (<= 1/32 relative bucket
  // error) so exported percentiles are tail-latency grade.
  HdrHistogram& GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

  // The process-wide registry every instrumented module reports into.
  // Intentionally leaked so exit-time exporters can never outlive it.
  static MetricsRegistry& Global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<HdrHistogram>, std::less<>>
      histograms_;
};

}  // namespace obs
}  // namespace ossm

#endif  // OSSM_OBS_METRICS_H_

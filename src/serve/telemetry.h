#ifndef OSSM_SERVE_TELEMETRY_H_
#define OSSM_SERVE_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "data/item.h"
#include "obs/hdr_histogram.h"
#include "obs/perf/perf_counters.h"
#include "obs/window.h"
#include "serve/query_engine.h"

namespace ossm {
namespace serve {

// One slow-query record: the itemset, where it was answered, and where the
// time went. Timestamps are obs::TraceNowMicros() values (monotonic µs
// since process start).
struct SlowQueryEntry {
  uint64_t completed_at_us = 0;
  uint64_t total_us = 0;       // enqueue -> answer, queue wait included
  uint64_t queue_wait_us = 0;  // of which: waiting for the wave
  QueryTier tier = QueryTier::kExact;
  uint64_t support = 0;
  bool frequent = false;
  Itemset itemset;
};

// Bounded ring of the most recent slow queries. Admission happens only for
// queries over the threshold, so the mutex is off the fast path; the ring
// overwrites oldest-first.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(size_t capacity);

  void Add(SlowQueryEntry entry);
  // The most recent min(n, size) entries, newest first.
  std::vector<SlowQueryEntry> Tail(size_t n) const;
  // Total entries ever admitted (>= what the ring still holds).
  uint64_t total_recorded() const {
    return total_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<SlowQueryEntry> ring_;  // grows to capacity_, then wraps
  size_t next_ = 0;                   // overwrite position once full
  std::atomic<uint64_t> total_{0};
};

// Cumulative tallies the serving stack hands to the exposition renderer —
// everything the windows can't derive themselves (engine tiers, cache
// size, batcher dispatch counts, connection count).
struct ServeCounterInputs {
  EngineStats engine;
  uint64_t cache_size = 0;
  // Cache-eligible answers: lifetime cache hits, and exact counts (each a
  // query the cache missed).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t batches = 0;
  uint64_t coalesced = 0;
  uint64_t backpressure_rejects = 0;
  uint64_t connections = 0;
};

// The serving stack's always-on telemetry: per-request and per-tier HDR
// latency histograms with 1-second windowed rings (last-10s and last-1m
// views), a windowed cache-hit ratio, a queue-depth gauge, and the
// slow-query log. Unlike the OSSM_METRICS registry this is a product
// surface — the METRICS/SLOWLOG protocol verbs and `ossm_cli top` read it
// whether or not an export mode is configured — so recording does not
// check MetricsEnabled(). All Record* methods are safe from any thread.
//
// Ownership: constructed next to the QueryEngine/Batcher/SupportServer
// trio and passed by pointer through their configs; a null pointer
// disables serve telemetry entirely (the tests that predate it).
class ServeTelemetry {
 public:
  struct Config {
    uint64_t window_width_us = 1'000'000;  // 1s windows...
    size_t num_windows = 60;               // ...kept for 1 minute
    // Queries slower than this (end to end) enter the slow-query log.
    // 0 logs everything; from OSSM_SLOWLOG_US via ConfigFromEnv.
    uint64_t slowlog_threshold_us = 10'000;
    size_t slowlog_capacity = 128;
  };

  // Windows for the two serving horizons, in units of num_windows slots.
  static constexpr size_t kShortWindows = 10;  // last 10s
  static constexpr size_t kLongWindows = 60;   // last 1m

  explicit ServeTelemetry(const Config& config);
  // `now` pins the window start (tests inject a fake clock origin; the
  // default constructor uses obs::TraceNowMicros()).
  ServeTelemetry(const Config& config, uint64_t now);
  ServeTelemetry() : ServeTelemetry(ConfigFromEnv()) {}

  ServeTelemetry(const ServeTelemetry&) = delete;
  ServeTelemetry& operator=(const ServeTelemetry&) = delete;

  // Config with slowlog_threshold_us overridden by OSSM_SLOWLOG_US when
  // the variable is set to a valid non-negative integer.
  static Config ConfigFromEnv();

  // -- recording (hot paths) --
  void RecordQueueWait(uint64_t us);
  void RecordWaveSize(uint64_t size);
  void RecordTierLatency(QueryTier tier, uint64_t us);
  // End-to-end completion of one query; feeds the request histogram, qps
  // window, and (over the threshold) the slow-query log.
  void RecordRequest(const Itemset& itemset, const QueryResult& result,
                     uint64_t queue_wait_us, uint64_t total_us);
  void SetQueueDepth(uint64_t depth);
  // Cumulative cache tallies (EngineStats cache_hits and exact_counts);
  // folded into the windowed hit-ratio ring. Called per wave and per
  // scrape.
  void ObserveCache(uint64_t hits, uint64_t misses);

  // -- reading --
  uint64_t queue_depth() const {
    return queue_depth_.load(std::memory_order_relaxed);
  }
  const SlowQueryLog& slowlog() const { return slowlog_; }
  uint64_t slowlog_threshold_us() const {
    return config_.slowlog_threshold_us;
  }

  // Windowed views (rotate lazily on the caller's read).
  obs::HdrSnapshot RequestWindow(size_t last_n);
  obs::HdrSnapshot QueueWaitWindow(size_t last_n);
  obs::HdrSnapshot WaveSizeWindow(size_t last_n);
  obs::HdrSnapshot TierWindow(QueryTier tier, size_t last_n);
  double Qps(size_t last_n);                  // requests per second
  double CacheHitRatio(size_t last_n);        // 0 when no lookups

  // Since-boot cumulative histograms (for STATS and the bench report).
  const obs::HdrHistogram& request_histogram() const { return request_us_; }
  const obs::HdrHistogram& queue_wait_histogram() const {
    return queue_wait_us_;
  }
  const obs::HdrHistogram& tier_histogram(QueryTier tier) const {
    return tier_us_[static_cast<size_t>(tier)];
  }

  // The full Prometheus text exposition for the serving stack: counter
  // families from `inputs`, windowed summary families ({window="10s"|"1m"},
  // quantiles 0.5/0.95/0.99) for request/queue-wait/wave/tier latencies,
  // gauges for qps, cache hit ratio, and queue depth, plus process-level
  // gauges (ossm_process_rss_bytes / uptime_seconds / open_fds / threads)
  // and — when the PMU admits inherited counters — the process IPC over
  // the interval since the previous scrape (ossm_process_ipc;
  // ossm_process_perf_available says which mode the scrape ran in).
  // Ends with '\n'.
  std::string PrometheusText(const ServeCounterInputs& inputs);

  // Renders one slow-query entry as the SLOWLOG line body (no newline):
  //   age_us=... total_us=... queue_us=... tier=... support=...
  //   frequent=0|1 items=a,b,c
  static std::string FormatSlowEntry(const SlowQueryEntry& entry,
                                     uint64_t now_us);

 private:
  static constexpr size_t kTiers = 4;

  Config config_;

  obs::HdrHistogram request_us_;
  obs::HdrHistogram queue_wait_us_;
  obs::HdrHistogram wave_size_;
  obs::HdrHistogram tier_us_[kTiers];

  obs::WindowedHistogram request_win_;
  obs::WindowedHistogram queue_wait_win_;
  obs::WindowedHistogram wave_win_;
  obs::WindowedHistogram tier_win_[kTiers];
  obs::WindowedRatio cache_ratio_;

  std::atomic<uint64_t> queue_depth_{0};
  SlowQueryLog slowlog_;

  // Process-wide inherited counters for the live IPC gauge; last_perf_
  // holds the previous scrape's reading so each scrape reports the IPC of
  // the interval between scrapes, not the lifetime average.
  obs::perf::InheritedPerfCounters process_perf_;
  std::mutex perf_mu_;  // guards last_perf_ across concurrent scrapes
  obs::perf::PerfReading last_perf_;
};

}  // namespace serve
}  // namespace ossm

#endif  // OSSM_SERVE_TELEMETRY_H_

#include "serve/telemetry.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "obs/export.h"
#include "obs/perf/resource_usage.h"
#include "obs/trace.h"

namespace ossm {
namespace serve {

namespace {

uint64_t NowUs() { return obs::TraceNowMicros(); }

std::string FormatDouble(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

std::string FormatUint(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
  return buffer;
}

}  // namespace

SlowQueryLog::SlowQueryLog(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void SlowQueryLog::Add(SlowQueryEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(entry));
  } else {
    ring_[next_] = std::move(entry);
    next_ = (next_ + 1) % capacity_;
  }
  total_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SlowQueryEntry> SlowQueryLog::Tail(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t take = std::min(n, ring_.size());
  std::vector<SlowQueryEntry> tail;
  tail.reserve(take);
  // Newest entry is just before next_ once the ring has wrapped, else at
  // the back of the still-growing vector.
  size_t newest = ring_.size() < capacity_ ? ring_.size() - 1
                                           : (next_ + capacity_ - 1) % capacity_;
  for (size_t i = 0; i < take; ++i) {
    tail.push_back(ring_[(newest + ring_.size() - i) % ring_.size()]);
  }
  return tail;
}

ServeTelemetry::Config ServeTelemetry::ConfigFromEnv() {
  Config config;
  if (const char* env = std::getenv("OSSM_SLOWLOG_US");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end != nullptr && *end == '\0') {
      config.slowlog_threshold_us = static_cast<uint64_t>(parsed);
    }
  }
  return config;
}

ServeTelemetry::ServeTelemetry(const Config& config)
    : ServeTelemetry(config, NowUs()) {}

ServeTelemetry::ServeTelemetry(const Config& config, uint64_t now)
    : config_(config),
      request_win_(&request_us_, config.window_width_us, config.num_windows,
                   now),
      queue_wait_win_(&queue_wait_us_, config.window_width_us,
                      config.num_windows, now),
      wave_win_(&wave_size_, config.window_width_us, config.num_windows, now),
      tier_win_{
          {&tier_us_[0], config.window_width_us, config.num_windows, now},
          {&tier_us_[1], config.window_width_us, config.num_windows, now},
          {&tier_us_[2], config.window_width_us, config.num_windows, now},
          {&tier_us_[3], config.window_width_us, config.num_windows, now}},
      cache_ratio_(config.window_width_us, config.num_windows, now),
      slowlog_(config.slowlog_capacity) {}

void ServeTelemetry::RecordQueueWait(uint64_t us) {
  queue_wait_us_.Record(us);
}

void ServeTelemetry::RecordWaveSize(uint64_t size) {
  wave_size_.Record(size);
}

void ServeTelemetry::RecordTierLatency(QueryTier tier, uint64_t us) {
  tier_us_[static_cast<size_t>(tier)].Record(us);
}

void ServeTelemetry::RecordRequest(const Itemset& itemset,
                                   const QueryResult& result,
                                   uint64_t queue_wait_us,
                                   uint64_t total_us) {
  request_us_.Record(total_us);
  if (total_us >= config_.slowlog_threshold_us) {
    SlowQueryEntry entry;
    entry.completed_at_us = NowUs();
    entry.total_us = total_us;
    entry.queue_wait_us = queue_wait_us;
    entry.tier = result.tier;
    entry.support = result.support;
    entry.frequent = result.frequent;
    entry.itemset = itemset;
    slowlog_.Add(std::move(entry));
  }
}

void ServeTelemetry::SetQueueDepth(uint64_t depth) {
  queue_depth_.store(depth, std::memory_order_relaxed);
}

void ServeTelemetry::ObserveCache(uint64_t hits, uint64_t misses) {
  cache_ratio_.Observe(NowUs(), hits, hits + misses);
}

obs::HdrSnapshot ServeTelemetry::RequestWindow(size_t last_n) {
  return request_win_.Merged(NowUs(), last_n);
}

obs::HdrSnapshot ServeTelemetry::QueueWaitWindow(size_t last_n) {
  return queue_wait_win_.Merged(NowUs(), last_n);
}

obs::HdrSnapshot ServeTelemetry::WaveSizeWindow(size_t last_n) {
  return wave_win_.Merged(NowUs(), last_n);
}

obs::HdrSnapshot ServeTelemetry::TierWindow(QueryTier tier, size_t last_n) {
  return tier_win_[static_cast<size_t>(tier)].Merged(NowUs(), last_n);
}

double ServeTelemetry::Qps(size_t last_n) {
  // Rate() is per clock unit (µs); scale to per second.
  return request_win_.Rate(NowUs(), last_n) * 1e6;
}

double ServeTelemetry::CacheHitRatio(size_t last_n) {
  return cache_ratio_.Ratio(NowUs(), last_n, 0.0);
}

namespace {

// One summary family across both windows:
//   name{window="10s",quantile="0.5"} v ... name_sum / name_count
// The _sum/_count pair covers the long window (the wider horizon).
void AppendWindowedSummary(std::string& out, const std::string& name,
                           obs::HdrSnapshot short_win,
                           obs::HdrSnapshot long_win) {
  out += "# TYPE " + name + " summary\n";
  struct WindowRow {
    const char* window;
    obs::HdrSnapshot* snap;
  } rows[] = {{"10s", &short_win}, {"1m", &long_win}};
  for (const WindowRow& row : rows) {
    for (double q : {0.5, 0.95, 0.99}) {
      out += name + "{window=\"" + row.window + "\",quantile=\"" +
             FormatDouble(q) + "\"} " +
             FormatDouble(row.snap->Percentile(q)) + "\n";
    }
  }
  out += name + "_sum " + FormatUint(long_win.sum()) + "\n";
  out += name + "_count " + FormatUint(long_win.count()) + "\n";
}

void AppendCounter(std::string& out, const std::string& name,
                   uint64_t value) {
  out += "# TYPE " + name + " counter\n" + name + " " + FormatUint(value) +
         "\n";
}

void AppendGauge(std::string& out, const std::string& name,
                 const std::string& value) {
  out += "# TYPE " + name + " gauge\n" + name + " " + value + "\n";
}

}  // namespace

std::string ServeTelemetry::PrometheusText(const ServeCounterInputs& inputs) {
  // Fold the latest cache tallies in so scrapes alone keep the ratio
  // window honest even between waves.
  ObserveCache(inputs.cache_hits, inputs.cache_misses);

  std::string out;
  out.reserve(4096);

  AppendCounter(out, "ossm_serve_queries_total", inputs.engine.queries);
  AppendCounter(out, "ossm_serve_bound_rejects_total",
                inputs.engine.bound_rejects);
  AppendCounter(out, "ossm_serve_singleton_hits_total",
                inputs.engine.singleton_hits);
  AppendCounter(out, "ossm_serve_cache_hits_total", inputs.engine.cache_hits);
  AppendCounter(out, "ossm_serve_exact_counts_total",
                inputs.engine.exact_counts);
  AppendCounter(out, "ossm_serve_bitmap_counts_total",
                inputs.engine.bitmap_counts);
  AppendCounter(out, "ossm_serve_batches_total", inputs.batches);
  AppendCounter(out, "ossm_serve_coalesced_total", inputs.coalesced);
  AppendCounter(out, "ossm_serve_backpressure_rejects_total",
                inputs.backpressure_rejects);
  AppendCounter(out, "ossm_serve_connections_total", inputs.connections);
  AppendCounter(out, "ossm_serve_slowlog_entries_total",
                slowlog_.total_recorded());

  AppendGauge(out, "ossm_serve_cache_size", FormatUint(inputs.cache_size));
  AppendGauge(out, "ossm_serve_queue_depth", FormatUint(queue_depth()));
  AppendGauge(out, "ossm_serve_qps_10s", FormatDouble(Qps(kShortWindows)));
  AppendGauge(out, "ossm_serve_qps_1m", FormatDouble(Qps(kLongWindows)));
  AppendGauge(out, "ossm_serve_cache_hit_ratio_10s",
              FormatDouble(CacheHitRatio(kShortWindows)));
  AppendGauge(out, "ossm_serve_cache_hit_ratio_1m",
              FormatDouble(CacheHitRatio(kLongWindows)));

  // Process-level gauges: present on every scrape, traffic or not.
  obs::perf::ResourceUsage usage = obs::perf::SampleResourceUsage();
  AppendGauge(out, "ossm_process_rss_bytes", FormatUint(usage.rss_bytes));
  AppendGauge(out, "ossm_process_uptime_seconds",
              FormatDouble(usage.uptime_seconds));
  AppendGauge(out, "ossm_process_open_fds", FormatUint(usage.open_fds));
  AppendGauge(out, "ossm_process_threads", FormatUint(usage.threads));
  AppendGauge(out, "ossm_process_perf_available",
              process_perf_.available() ? "1" : "0");
  if (process_perf_.available()) {
    std::lock_guard<std::mutex> lock(perf_mu_);
    obs::perf::PerfReading now_reading = process_perf_.ReadNow();
    obs::perf::PerfReading delta = obs::perf::Delta(last_perf_, now_reading);
    last_perf_ = now_reading;
    if (delta.HasIpc()) {
      AppendGauge(out, "ossm_process_ipc", FormatDouble(delta.Ipc()));
    }
  }

  AppendWindowedSummary(out, "ossm_serve_request_us",
                        RequestWindow(kShortWindows),
                        RequestWindow(kLongWindows));
  AppendWindowedSummary(out, "ossm_serve_queue_wait_us",
                        QueueWaitWindow(kShortWindows),
                        QueueWaitWindow(kLongWindows));
  AppendWindowedSummary(out, "ossm_serve_wave_size",
                        WaveSizeWindow(kShortWindows),
                        WaveSizeWindow(kLongWindows));
  constexpr QueryTier kAllTiers[] = {
      QueryTier::kBoundReject, QueryTier::kSingleton, QueryTier::kCacheHit,
      QueryTier::kExact};
  // One family, labelled per tier: the TYPE line is emitted once and every
  // tier contributes its labelled quantile series.
  out += "# TYPE ossm_serve_tier_us summary\n";
  for (QueryTier tier : kAllTiers) {
    const std::string label =
        "tier=\"" + std::string(QueryTierName(tier)) + "\"";
    struct WindowRow {
      const char* window;
      size_t last_n;
    } rows[] = {{"10s", kShortWindows}, {"1m", kLongWindows}};
    for (const WindowRow& row : rows) {
      obs::HdrSnapshot snap = TierWindow(tier, row.last_n);
      for (double q : {0.5, 0.95, 0.99}) {
        out += "ossm_serve_tier_us{" + label + ",window=\"" + row.window +
               "\",quantile=\"" + FormatDouble(q) + "\"} " +
               FormatDouble(snap.Percentile(q)) + "\n";
      }
      if (row.last_n == kLongWindows) {
        out += "ossm_serve_tier_us_sum{" + label + "} " +
               FormatUint(snap.sum()) + "\n";
        out += "ossm_serve_tier_us_count{" + label + "} " +
               FormatUint(snap.count()) + "\n";
      }
    }
  }
  return out;
}

std::string ServeTelemetry::FormatSlowEntry(const SlowQueryEntry& entry,
                                            uint64_t now_us) {
  const uint64_t age =
      now_us >= entry.completed_at_us ? now_us - entry.completed_at_us : 0;
  std::string line = "age_us=" + FormatUint(age) +
                     " total_us=" + FormatUint(entry.total_us) +
                     " queue_us=" + FormatUint(entry.queue_wait_us) +
                     " tier=" + std::string(QueryTierName(entry.tier)) +
                     " support=" + FormatUint(entry.support) +
                     " frequent=" + (entry.frequent ? "1" : "0") + " items=";
  for (size_t i = 0; i < entry.itemset.size(); ++i) {
    if (i > 0) line += ',';
    line += FormatUint(entry.itemset[i]);
  }
  return line;
}

}  // namespace serve
}  // namespace ossm

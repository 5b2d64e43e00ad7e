#include "serve/batcher.h"

#include <memory>
#include <utility>

#include "obs/obs.h"
#include "obs/trace.h"
#include "serve/telemetry.h"

namespace ossm {
namespace serve {

Batcher::Batcher(QueryEngine* engine, const BatcherConfig& config)
    : engine_(engine), config_(config) {
  OSSM_CHECK(engine_ != nullptr);
  OSSM_CHECK_GT(config_.max_batch, 0u);
  OSSM_CHECK_GT(config_.max_queue, 0u);
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

Batcher::~Batcher() { Shutdown(); }

Status Batcher::SubmitAsync(Itemset itemset, Callback callback) {
  OSSM_RETURN_IF_ERROR(engine_->ValidateItemset(itemset));
  Pending pending;
  pending.itemset = std::move(itemset);
  pending.callback = std::move(callback);
  pending.enqueued = std::chrono::steady_clock::now();
  if (obs::TraceEventRetention()) {
    OSSM_TRACE_SPAN("serve.submit");
    pending.flow_id = obs::NewFlowId();
    obs::EmitFlowStart("serve.query", pending.flow_id);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("batcher is shut down");
    }
    if (pending_.size() >= config_.max_queue) {
      backpressure_rejects_.fetch_add(1, std::memory_order_relaxed);
      OSSM_COUNTER_INC("serve.batcher.backpressure_rejects");
      return Status::ResourceExhausted(
          "query queue full (" + std::to_string(config_.max_queue) +
          " pending)");
    }
    pending_.push_back(std::move(pending));
    queue_depth_.store(pending_.size(), std::memory_order_relaxed);
  }
  if (config_.telemetry != nullptr) {
    config_.telemetry->SetQueueDepth(
        queue_depth_.load(std::memory_order_relaxed));
  }
  wake_.notify_one();
  return Status::OK();
}

std::future<StatusOr<QueryResult>> Batcher::Submit(Itemset itemset) {
  auto promise = std::make_shared<std::promise<StatusOr<QueryResult>>>();
  std::future<StatusOr<QueryResult>> future = promise->get_future();
  Status admitted = SubmitAsync(
      std::move(itemset),
      [promise](const StatusOr<QueryResult>& result) {
        promise->set_value(result);
      });
  if (!admitted.ok()) promise->set_value(admitted);
  return future;
}

void Batcher::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    wake_.notify_all();
    dispatcher_.join();
  });
}

void Batcher::DispatchLoop() {
  for (;;) {
    std::vector<Pending> wave;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Dispatch-when-free: sleep only while nothing is pending, then take
      // everything queued (up to max_batch). Queries that arrive while a
      // wave runs share the next one, so wave size follows load.
      wake_.wait(lock, [this] { return shutdown_ || !pending_.empty(); });
      if (pending_.empty()) return;  // shutdown with nothing left to drain
      size_t take = std::min<size_t>(pending_.size(), config_.max_batch);
      wave.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        wave.push_back(std::move(pending_.front()));
        pending_.pop_front();
      }
      queue_depth_.store(pending_.size(), std::memory_order_relaxed);
    }
    if (config_.telemetry != nullptr) {
      config_.telemetry->SetQueueDepth(
          queue_depth_.load(std::memory_order_relaxed));
    }
    RunBatch(std::move(wave));
  }
}

void Batcher::RunBatch(std::vector<Pending> wave) {
  OSSM_TRACE_SPAN("serve.batch");
  if (obs::TraceEventRetention()) {
    for (const Pending& pending : wave) {
      if (pending.flow_id != 0) {
        obs::EmitFlowEnd("serve.query", pending.flow_id);
      }
    }
  }
  ServeTelemetry* telemetry = config_.telemetry;
  const auto wave_start = std::chrono::steady_clock::now();
  // Per-query queue wait, captured before the engine call so the request
  // totals below can split time into waiting vs counting.
  std::vector<uint64_t> queue_wait_us(wave.size(), 0);
  for (size_t i = 0; i < wave.size(); ++i) {
    queue_wait_us[i] = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            wave_start - wave[i].enqueued)
            .count());
  }
  if (telemetry != nullptr) {
    for (uint64_t wait : queue_wait_us) telemetry->RecordQueueWait(wait);
    telemetry->RecordWaveSize(wave.size());
  }
  if (obs::MetricsEnabled()) {
    OSSM_HISTOGRAM_RECORD("serve.batch_wait_us", queue_wait_us[0]);
    OSSM_HISTOGRAM_RECORD("serve.batch_size", wave.size());
  }

  std::vector<Itemset> itemsets;
  itemsets.reserve(wave.size());
  for (Pending& pending : wave) itemsets.push_back(std::move(pending.itemset));
  // record_requests off: the batcher records each request itself below,
  // with the real enqueue-to-answer latency and queue-wait split. The
  // engine dedups the wave: identical itemsets ride one answer.
  uint64_t duplicates = 0;
  StatusOr<std::vector<QueryResult>> results = engine_->QueryBatch(
      std::span<const Itemset>(itemsets.data(), itemsets.size()),
      QueryBatchOptions{.record_requests = false, .duplicates = &duplicates});
  coalesced_.fetch_add(duplicates, std::memory_order_relaxed);
  OSSM_COUNTER_ADD("serve.batcher.coalesced", duplicates);
  batches_.fetch_add(1, std::memory_order_relaxed);
  OSSM_COUNTER_INC("serve.batcher.batches");
  const auto wave_end = std::chrono::steady_clock::now();
  for (size_t i = 0; i < wave.size(); ++i) {
    StatusOr<QueryResult> answer =
        results.ok() ? StatusOr<QueryResult>((*results)[i])
                     : StatusOr<QueryResult>(results.status());
    // Record before the callback releases the reply: a client holding
    // every answer must find every request in METRICS and SLOWLOG.
    if (telemetry != nullptr && answer.ok()) {
      const uint64_t total_us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              wave_end - wave[i].enqueued)
              .count());
      telemetry->RecordRequest(itemsets[i], *answer, queue_wait_us[i],
                               total_us);
    }
    wave[i].callback(answer);
  }
  if (telemetry != nullptr) {
    EngineStats stats = engine_->Stats();
    telemetry->ObserveCache(stats.cache_hits, stats.exact_counts);
  }
}

}  // namespace serve
}  // namespace ossm

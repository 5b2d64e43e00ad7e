#ifndef OSSM_SERVE_BATCHER_H_
#define OSSM_SERVE_BATCHER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "data/item.h"
#include "serve/query_engine.h"

namespace ossm {
namespace serve {

struct BatcherConfig {
  // The most queries one wave takes; the rest wait for the next wave.
  uint32_t max_batch = 64;
  // Ignored: there is no batching window (see Batcher), so nothing waits
  // for company. The field remains only because the repository benchmark
  // (perfbench/src/serve_workload.cc) still assigns it; it goes together
  // with that assignment.
  uint32_t max_delay_us = 1000;
  // Beyond this many pending queries Submit rejects with
  // kResourceExhausted instead of growing the queue without bound: under
  // sustained overload the caller (the TCP front-end, ultimately the
  // client) hears about it immediately, rather than every query slowly
  // timing out behind an unbounded backlog.
  uint32_t max_queue = 4096;
  // Optional serving telemetry (serve/telemetry.h): queue-depth gauge,
  // queue-wait / wave-size histograms, end-to-end request records and the
  // slow-query log. Null disables. Must outlive the batcher.
  ServeTelemetry* telemetry = nullptr;
};

// Coalesces single-itemset submissions into QueryEngine::QueryBatch calls:
// a dedicated dispatch thread sleeps while the queue is empty and, whenever
// it is free, takes everything pending (up to max_batch) as one wave, runs
// one batched engine call over it (the engine dedups identical itemsets),
// and completes every submission. There is no timer: a lone query leaves
// at once, and queries that arrive while a wave runs share the next one,
// so wave size follows load. Batching is what amortizes the exact tier — a
// wave of cache misses costs one CSR sweep instead of one per query — so
// the TCP front-end submits only queries that
// QueryEngine::TryAnswerWithoutScan could not answer on its own thread.
class Batcher {
 public:
  // Completion callback; runs on the dispatch thread, so it must be cheap
  // and must not re-enter the batcher synchronously.
  using Callback = std::function<void(const StatusOr<QueryResult>&)>;

  Batcher(QueryEngine* engine, const BatcherConfig& config);
  ~Batcher();  // implies Shutdown()

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  // Enqueues one query. Returns without invoking the callback on:
  //   kInvalidArgument    — malformed itemset (never reaches a batch);
  //   kResourceExhausted  — queue at max_queue (backpressure);
  //   kFailedPrecondition — the batcher is shut down.
  // On OK the callback fires exactly once, after the query's wave, and
  // after the request has been recorded in the telemetry.
  Status SubmitAsync(Itemset itemset, Callback callback);

  // Future-returning convenience over SubmitAsync. Admission errors come
  // back as an already-resolved future.
  std::future<StatusOr<QueryResult>> Submit(Itemset itemset);

  // Stops admission, drains every already-accepted query through the
  // engine, and joins the dispatch thread. Idempotent. This is the
  // SIGTERM path: accepted work completes, new work is refused.
  void Shutdown();

  // Dispatch tallies (for STATS and tests).
  uint64_t batches_dispatched() const {
    return batches_.load(std::memory_order_relaxed);
  }
  uint64_t queries_coalesced() const {
    return coalesced_.load(std::memory_order_relaxed);
  }
  uint64_t backpressure_rejects() const {
    return backpressure_rejects_.load(std::memory_order_relaxed);
  }
  // Queries currently waiting for a wave (for STATS; sampled unlocked).
  uint64_t queue_depth() const {
    return queue_depth_.load(std::memory_order_relaxed);
  }

 private:
  struct Pending {
    Itemset itemset;
    Callback callback;
    std::chrono::steady_clock::time_point enqueued;
    uint64_t flow_id = 0;  // trace arrow from submitter to dispatch
  };

  void DispatchLoop();
  void RunBatch(std::vector<Pending> wave);

  QueryEngine* engine_;
  BatcherConfig config_;

  std::mutex mu_;
  std::condition_variable wake_;
  std::deque<Pending> pending_;
  bool shutdown_ = false;
  std::once_flag shutdown_once_;

  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> coalesced_{0};
  std::atomic<uint64_t> backpressure_rejects_{0};
  std::atomic<uint64_t> queue_depth_{0};

  std::thread dispatcher_;
};

}  // namespace serve
}  // namespace ossm

#endif  // OSSM_SERVE_BATCHER_H_

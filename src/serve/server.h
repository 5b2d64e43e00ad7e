#ifndef OSSM_SERVE_SERVER_H_
#define OSSM_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "serve/batcher.h"
#include "serve/query_engine.h"

namespace ossm {
namespace serve {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  // 0 binds an ephemeral port; read the choice back with port().
  uint16_t port = 0;
  uint32_t max_connections = 256;
  // Per-connection limits: a request line longer than this closes the
  // connection (a client that never sends '\n' cannot grow the buffer
  // without bound), and a query wider than this many distinct items is
  // answered with ERR.
  uint32_t max_line_bytes = 1 << 16;
  uint32_t max_items_per_query = 256;
  // How long Shutdown waits for in-flight batches to complete and response
  // buffers to flush before force-closing what remains.
  uint32_t drain_timeout_ms = 5000;
  // Optional serving telemetry (serve/telemetry.h) behind the METRICS and
  // SLOWLOG verbs and the queue_* STATS keys. Null keeps those verbs
  // answering with empty (n = 0) bodies. Must outlive the server. Usually
  // the same instance wired into the engine and batcher configs.
  ServeTelemetry* telemetry = nullptr;
  // Upper bound on entries one SLOWLOG response returns.
  uint32_t max_slowlog_entries = 256;
  // Upper bound on one PROFILE sampling window; requests asking for more
  // are clamped, never rejected.
  uint32_t max_profile_ms = 2000;
};

// The epoll front-end (Linux-only, like the CI targets): one event-loop
// thread multiplexing every connection, speaking the line protocol of
// serve/protocol.h. The loop answers tiers 1-2 itself
// (QueryEngine::TryAnswerWithoutScan); queries that need an exact count
// flow loop -> Batcher -> QueryEngine -> completion callback -> loop, with
// per-connection response slots keeping answers in request order even
// though batches complete out of order.
//
// Graceful shutdown (the SIGTERM path): Shutdown() stops accepting and
// reading, lets every already-admitted query finish its batch, flushes the
// response buffers, then closes. Force-close only after drain_timeout_ms.
class SupportServer {
 public:
  SupportServer(QueryEngine* engine, Batcher* batcher,
                const ServerConfig& config);
  ~SupportServer();  // implies Shutdown()

  SupportServer(const SupportServer&) = delete;
  SupportServer& operator=(const SupportServer&) = delete;

  // Binds, listens, and starts the event loop. Fails with kIOError when the
  // address/port cannot be bound.
  Status Start();

  // The port actually bound (== config.port unless it was 0). Valid after
  // a successful Start().
  uint16_t port() const { return port_; }

  // Drains and stops. Safe to call from any thread (a signal handler
  // should instead set a flag and call this from the main thread).
  // Idempotent.
  void Shutdown();

  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

 private:
  // One response slot per request, completed either inline (PING/INFO/
  // STATS/errors/scan-free answers) or by a batcher callback. `text` is written before the
  // release-store of `done`; the loop's acquire-load makes it visible.
  struct Slot {
    std::atomic<bool> done{false};
    std::string text;
  };

  struct Connection {
    int fd = -1;
    std::string inbuf;
    std::string outbuf;
    std::deque<std::shared_ptr<Slot>> slots;  // request order
    bool close_after_flush = false;  // QUIT or protocol violation
    bool want_write = false;         // EPOLLOUT currently registered
  };

  void EventLoop();
  void AcceptNew();
  void HandleReadable(Connection& conn);
  // Parses complete lines out of conn.inbuf, filling slots.
  void DispatchLines(Connection& conn);
  // Moves completed leading slots into outbuf and writes what the socket
  // accepts. Returns false when the connection should be dropped.
  bool FlushConnection(Connection& conn);
  void CloseConnection(int fd);
  bool Drained() const;
  std::string InfoLine() const;
  std::string StatsLine() const;
  // "METRICS <n>" + n exposition lines in one response slot.
  std::string MetricsText() const;
  // "SLOWLOG <n>" + n entry lines, newest first.
  std::string SlowlogText(uint32_t count) const;
  // Runs the process-global sampling profiler for `ms` on a detached-from-
  // the-loop worker thread, then completes `slot` with "PROFILE <n>" + n
  // folded-stack lines and kicks the loop. The event loop keeps serving
  // other connections during the window; only this request's slot waits.
  void StartProfile(std::shared_ptr<Slot> slot, uint32_t ms);

  // The loop's eventfd and its kick-pending flag (server.cc). Completion
  // callbacks share it, so a batcher that outlives the server still writes
  // into this eventfd, never into a file that reused its number.
  class Wake;

  QueryEngine* engine_;
  Batcher* batcher_;
  ServerConfig config_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  std::shared_ptr<Wake> wake_;  // completion callbacks + shutdown kick
  uint16_t port_ = 0;
  std::thread loop_;
  std::atomic<bool> shutting_down_{false};
  std::once_flag shutdown_once_;
  std::atomic<uint64_t> connections_accepted_{0};

  // PROFILE worker: at most one in flight (the SIGPROF sampler is
  // process-global); `profiling_` is the busy guard, the thread is joined
  // lazily before reuse and finally in Shutdown().
  std::thread profile_thread_;
  std::atomic<bool> profiling_{false};

  std::map<int, std::unique_ptr<Connection>> connections_;
};

}  // namespace serve
}  // namespace ossm

#endif  // OSSM_SERVE_SERVER_H_

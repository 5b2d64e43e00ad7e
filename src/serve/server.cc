// Linux epoll implementation of the TCP front-end. Everything here runs on
// the single event-loop thread, scan-free query answers included, except
// the batcher completion callbacks, which only fill their own Slot
// (release-store) and kick the loop's Wake.

#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/obs.h"
#include "obs/perf/profiler.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/telemetry.h"

namespace ossm {
namespace serve {

namespace {

constexpr int kListenBacklog = 128;

void BestEffortWrite(int fd, std::string_view text) {
  ssize_t ignored = ::write(fd, text.data(), text.size());
  (void)ignored;
}

}  // namespace

// One loop wake-up per burst of completions: the first Kick since the loop
// last collected sets `pending_` and writes the eventfd; later kicks see
// the flag and return, so a 64-query wave costs one write(2), not 64.
// Nothing is missed: callers complete their slot before they kick, and
// Collect clears the flag, ahead of the flush pass, with an exchange that
// reads every earlier kick's exchange, so the pass sees each slot whose
// kick found the flag up; a kick after the clear writes again.
class SupportServer::Wake {
 public:
  Wake() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}
  ~Wake() {
    if (fd_ >= 0) ::close(fd_);
  }
  Wake(const Wake&) = delete;
  Wake& operator=(const Wake&) = delete;

  int fd() const { return fd_; }

  void Kick() {
    if (pending_.exchange(true, std::memory_order_acq_rel)) return;
    uint64_t one = 1;
    ssize_t ignored = ::write(fd_, &one, sizeof(one));
    (void)ignored;
  }

  // Loop thread: drains the eventfd, then re-arms Kick.
  void Collect() {
    uint64_t count = 0;
    ssize_t ignored = ::read(fd_, &count, sizeof(count));
    (void)ignored;
    pending_.exchange(false, std::memory_order_acq_rel);
  }

 private:
  const int fd_;
  std::atomic<bool> pending_{false};
};

SupportServer::SupportServer(QueryEngine* engine, Batcher* batcher,
                             const ServerConfig& config)
    : engine_(engine), batcher_(batcher), config_(config) {
  OSSM_CHECK(engine_ != nullptr);
  OSSM_CHECK(batcher_ != nullptr);
}

SupportServer::~SupportServer() { Shutdown(); }

Status SupportServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::IOError("socket: " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address " +
                                   config_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IOError("bind " + config_.bind_address + ":" +
                           std::to_string(config_.port) + ": " +
                           std::strerror(errno));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    return Status::IOError("getsockname: " +
                           std::string(std::strerror(errno)));
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    return Status::IOError("listen: " + std::string(std::strerror(errno)));
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_ = std::make_shared<Wake>();
  if (epoll_fd_ < 0 || wake_->fd() < 0) {
    return Status::IOError("epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_->fd();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_->fd(), &ev);

  loop_ = std::thread([this] { EventLoop(); });
  return Status::OK();
}

void SupportServer::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    shutting_down_.store(true, std::memory_order_release);
    if (wake_ != nullptr) wake_->Kick();
    if (loop_.joinable()) loop_.join();
    // The loop is gone, so no new profile can start; wait out an in-flight
    // window (bounded by max_profile_ms).
    if (profile_thread_.joinable()) profile_thread_.join();
  });
}

bool SupportServer::Drained() const {
  for (const auto& [fd, conn] : connections_) {
    if (!conn->outbuf.empty()) return false;
    for (const auto& slot : conn->slots) {
      if (!slot->done.load(std::memory_order_acquire)) return false;
    }
  }
  return true;
}

void SupportServer::EventLoop() {
  auto drain_deadline = std::chrono::steady_clock::time_point::max();
  epoll_event events[64];
  for (;;) {
    bool draining = shutting_down_.load(std::memory_order_acquire);
    if (draining &&
        drain_deadline == std::chrono::steady_clock::time_point::max()) {
      // First pass after the shutdown kick: stop accepting.
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      drain_deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(config_.drain_timeout_ms);
    }
    if (draining) {
      // Flush whatever completed, then leave once everything is out the
      // door (or the drain window expires).
      std::vector<int> dead;
      for (auto& [fd, conn] : connections_) {
        if (!FlushConnection(*conn)) dead.push_back(fd);
      }
      for (int fd : dead) CloseConnection(fd);
      if (Drained() || std::chrono::steady_clock::now() >= drain_deadline) {
        break;
      }
    }

    int timeout_ms = draining ? 20 : -1;
    int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    std::vector<int> dead;
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_->fd()) {
        wake_->Collect();
        continue;
      }
      if (fd == listen_fd_) {
        if (!draining) AcceptNew();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      Connection& conn = *it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        dead.push_back(fd);
        continue;
      }
      if (!draining && (events[i].events & EPOLLIN)) {
        HandleReadable(conn);
      }
      // EPOLLOUT (and any completion) is handled by the flush pass below.
    }
    for (int fd : dead) CloseConnection(fd);
    dead.clear();
    // Completion callbacks only kick the Wake; responses are collected
    // here so every wake flushes whatever became ready, on any connection.
    for (auto& [fd, conn] : connections_) {
      if (!FlushConnection(*conn)) dead.push_back(fd);
    }
    for (int fd : dead) CloseConnection(fd);
  }

  for (auto& [fd, conn] : connections_) {
    (void)conn;
    ::close(fd);
  }
  connections_.clear();
  ::close(epoll_fd_);
  epoll_fd_ = -1;
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void SupportServer::AcceptNew() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: wait for next event
    if (connections_.size() >= config_.max_connections) {
      BestEffortWrite(fd, "ERR server at connection limit\n");
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    connections_.emplace(fd, std::move(conn));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SupportServer::HandleReadable(Connection& conn) {
  char buffer[4096];
  for (;;) {
    ssize_t n = ::read(conn.fd, buffer, sizeof(buffer));
    if (n > 0) {
      conn.inbuf.append(buffer, static_cast<size_t>(n));
      DispatchLines(conn);
      if (conn.close_after_flush) return;
      // The per-connection line limit: a partial line this long can only
      // be a runaway or hostile client.
      if (conn.inbuf.size() > config_.max_line_bytes) {
        auto slot = std::make_shared<Slot>();
        slot->text = FormatError(Status::InvalidArgument(
            "request line exceeds " +
            std::to_string(config_.max_line_bytes) + " bytes"));
        slot->done.store(true, std::memory_order_release);
        conn.slots.push_back(std::move(slot));
        conn.close_after_flush = true;
        OSSM_COUNTER_INC("serve.server.protocol_errors");
        return;
      }
      continue;
    }
    if (n == 0) {
      // Client half-closed; anything already admitted still gets its
      // answer before we drop the connection.
      conn.close_after_flush = true;
      return;
    }
    return;  // EAGAIN (or a transient error): try again on the next event
  }
}

void SupportServer::DispatchLines(Connection& conn) {
  size_t start = 0;
  for (;;) {
    size_t newline = conn.inbuf.find('\n', start);
    if (newline == std::string::npos) break;
    std::string_view line(conn.inbuf.data() + start, newline - start);
    start = newline + 1;
    OSSM_COUNTER_INC("serve.server.requests");

    StatusOr<Request> request =
        ParseRequest(line, config_.max_items_per_query);
    auto slot = std::make_shared<Slot>();
    if (!request.ok()) {
      slot->text = FormatError(request.status());
      slot->done.store(true, std::memory_order_release);
      conn.slots.push_back(std::move(slot));
      OSSM_COUNTER_INC("serve.server.protocol_errors");
      continue;
    }
    switch (request->kind) {
      case RequestKind::kPing:
        slot->text = "PONG";
        slot->done.store(true, std::memory_order_release);
        conn.slots.push_back(std::move(slot));
        break;
      case RequestKind::kInfo:
        slot->text = InfoLine();
        slot->done.store(true, std::memory_order_release);
        conn.slots.push_back(std::move(slot));
        break;
      case RequestKind::kStats:
        slot->text = StatsLine();
        slot->done.store(true, std::memory_order_release);
        conn.slots.push_back(std::move(slot));
        break;
      case RequestKind::kMetrics:
        slot->text = MetricsText();
        slot->done.store(true, std::memory_order_release);
        conn.slots.push_back(std::move(slot));
        break;
      case RequestKind::kSlowlog:
        slot->text = SlowlogText(request->slowlog_count);
        slot->done.store(true, std::memory_order_release);
        conn.slots.push_back(std::move(slot));
        break;
      case RequestKind::kProfile:
        conn.slots.push_back(slot);
        StartProfile(std::move(slot),
                     std::min(request->profile_ms, config_.max_profile_ms));
        break;
      case RequestKind::kQuit:
        slot->text = "BYE";
        slot->done.store(true, std::memory_order_release);
        conn.slots.push_back(std::move(slot));
        conn.close_after_flush = true;
        conn.inbuf.erase(0, start);
        return;
      case RequestKind::kQuery: {
        conn.slots.push_back(slot);
        // Tiers 1-2 answer here, on the loop thread; only queries that need
        // an exact count cross to the batcher (whose wave screens them
        // again, so a twin counted meanwhile replays from the cache). The
        // slot queue keeps replies in request order either way.
        QueryResult inline_result;
        StatusOr<bool> answered =
            engine_->TryAnswerWithoutScan(request->itemset, &inline_result);
        if (!answered.ok() || *answered) {
          slot->text = answered.ok() ? FormatResult(inline_result)
                                     : FormatError(answered.status());
          slot->done.store(true, std::memory_order_release);
          break;
        }
        // End-to-end request flow: the arrow spans front-end admission to
        // the completion callback, bracketing the batcher's own
        // submit->dispatch flow inside it.
        uint64_t flow_id = 0;
        if (obs::TraceEventRetention()) {
          flow_id = obs::NewFlowId();
          obs::EmitFlowStart("serve.request", flow_id);
        }
        Status admitted = batcher_->SubmitAsync(
            std::move(request->itemset),
            [slot, wake = wake_, flow_id](
                const StatusOr<QueryResult>& result) {
              slot->text = result.ok() ? FormatResult(*result)
                                       : FormatError(result.status());
              slot->done.store(true, std::memory_order_release);
              if (flow_id != 0) obs::EmitFlowEnd("serve.request", flow_id);
              wake->Kick();
            });
        if (!admitted.ok()) {
          // Backpressure (kResourceExhausted) or shutdown: answer inline,
          // connection stays up.
          slot->text = FormatError(admitted);
          slot->done.store(true, std::memory_order_release);
        }
        break;
      }
    }
  }
  conn.inbuf.erase(0, start);
}

bool SupportServer::FlushConnection(Connection& conn) {
  while (!conn.slots.empty() &&
         conn.slots.front()->done.load(std::memory_order_acquire)) {
    conn.outbuf += conn.slots.front()->text;
    conn.outbuf += '\n';
    conn.slots.pop_front();
  }
  while (!conn.outbuf.empty()) {
    ssize_t n = ::write(conn.fd, conn.outbuf.data(), conn.outbuf.size());
    if (n > 0) {
      conn.outbuf.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;  // peer vanished mid-write
  }
  bool need_write = !conn.outbuf.empty();
  if (need_write != conn.want_write) {
    epoll_event ev{};
    ev.events = need_write ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
    ev.data.fd = conn.fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.want_write = need_write;
  }
  if (conn.close_after_flush && conn.outbuf.empty() && conn.slots.empty()) {
    return false;
  }
  return true;
}

void SupportServer::StartProfile(std::shared_ptr<Slot> slot, uint32_t ms) {
  // One profile at a time, across every connection: SIGPROF and its
  // sample store are process-global.
  if (profiling_.exchange(true, std::memory_order_acq_rel)) {
    slot->text = FormatError(
        Status::ResourceExhausted("a PROFILE is already running"));
    slot->done.store(true, std::memory_order_release);
    return;
  }
  // The previous worker (if any) already cleared profiling_, so it has
  // finished its slot; reclaim it before reusing the member.
  if (profile_thread_.joinable()) profile_thread_.join();
  profile_thread_ =
      std::thread([this, slot = std::move(slot), ms, wake = wake_] {
        std::string folded;
        bool started = obs::perf::SamplingProfiler::Global().Start();
        if (started) {
          std::this_thread::sleep_for(std::chrono::milliseconds(ms));
          folded = obs::perf::SamplingProfiler::Global().Stop();
        }
        if (!started) {
          slot->text = FormatError(Status::FailedPrecondition(
              "profiler unavailable (another profile is active in this "
              "process, e.g. OSSM_PROFILE)"));
        } else {
          size_t lines = 0;
          for (char c : folded) {
            if (c == '\n') ++lines;
          }
          std::string text = "PROFILE " + std::to_string(lines);
          if (!folded.empty()) {
            text += '\n';
            text += folded;
            if (text.back() == '\n') text.pop_back();  // slot adds the '\n'
          }
          slot->text = std::move(text);
        }
        slot->done.store(true, std::memory_order_release);
        profiling_.store(false, std::memory_order_release);
        wake->Kick();
      });
}

void SupportServer::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  connections_.erase(it);
}

std::string SupportServer::InfoLine() const {
  return "INFO items=" + std::to_string(engine_->db().num_items()) +
         " transactions=" + std::to_string(engine_->db().num_transactions()) +
         " minsup=" + std::to_string(engine_->min_support()) +
         " segments=" + std::to_string(engine_->map_segments());
}

std::string SupportServer::StatsLine() const {
  EngineStats stats = engine_->Stats();
  // Key order is a documented contract (serve/protocol.h): existing keys
  // stay put, new keys append.
  std::string line =
      "STATS queries=" + std::to_string(stats.queries) +
      " bound_rejects=" + std::to_string(stats.bound_rejects) +
      " singleton_hits=" + std::to_string(stats.singleton_hits) +
      " cache_hits=" + std::to_string(stats.cache_hits) +
      " exact_counts=" + std::to_string(stats.exact_counts) +
      " cache_size=" + std::to_string(engine_->cache().size()) +
      " batches=" + std::to_string(batcher_->batches_dispatched()) +
      " coalesced=" + std::to_string(batcher_->queries_coalesced()) +
      " backpressure=" + std::to_string(batcher_->backpressure_rejects());
  uint64_t wait_p50 = 0;
  uint64_t wait_p95 = 0;
  uint64_t wait_p99 = 0;
  if (config_.telemetry != nullptr) {
    const obs::HdrHistogram& waits = config_.telemetry->queue_wait_histogram();
    wait_p50 = static_cast<uint64_t>(waits.Percentile(0.50));
    wait_p95 = static_cast<uint64_t>(waits.Percentile(0.95));
    wait_p99 = static_cast<uint64_t>(waits.Percentile(0.99));
  }
  line += " queue_depth=" + std::to_string(batcher_->queue_depth()) +
          " queue_wait_p50_us=" + std::to_string(wait_p50) +
          " queue_wait_p95_us=" + std::to_string(wait_p95) +
          " queue_wait_p99_us=" + std::to_string(wait_p99);
  return line;
}

std::string SupportServer::MetricsText() const {
  if (config_.telemetry == nullptr) return "METRICS 0";
  ServeCounterInputs inputs;
  inputs.engine = engine_->Stats();
  inputs.cache_size = engine_->cache().size();
  inputs.cache_hits = inputs.engine.cache_hits;
  inputs.cache_misses = inputs.engine.exact_counts;
  inputs.batches = batcher_->batches_dispatched();
  inputs.coalesced = batcher_->queries_coalesced();
  inputs.backpressure_rejects = batcher_->backpressure_rejects();
  inputs.connections = connections_accepted();
  std::string body = config_.telemetry->PrometheusText(inputs);
  // The body ends with '\n' and FlushConnection appends the slot's own
  // terminator, so drop the final newline and count the lines.
  if (!body.empty() && body.back() == '\n') body.pop_back();
  size_t lines = body.empty() ? 0 : 1;
  for (char c : body) {
    if (c == '\n') ++lines;
  }
  std::string text = "METRICS " + std::to_string(lines);
  if (!body.empty()) {
    text += '\n';
    text += body;
  }
  return text;
}

std::string SupportServer::SlowlogText(uint32_t count) const {
  if (config_.telemetry == nullptr) return "SLOWLOG 0";
  count = std::min(count, config_.max_slowlog_entries);
  std::vector<SlowQueryEntry> entries =
      config_.telemetry->slowlog().Tail(count);
  std::string text = "SLOWLOG " + std::to_string(entries.size());
  const uint64_t now = obs::TraceNowMicros();
  for (const SlowQueryEntry& entry : entries) {
    text += '\n';
    text += ServeTelemetry::FormatSlowEntry(entry, now);
  }
  return text;
}

}  // namespace serve
}  // namespace ossm

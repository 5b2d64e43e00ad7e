// Support-query serving — an online use of the OSSM beyond batch mining.
// A dashboard (or rule engine) asks "how often does {a, b} occur?" at
// interactive rates; the serving stack answers through three tiers,
// cheapest first:
//   1. the OSSM bound screen rejects itemsets whose equation-(1) upper
//      bound already falls below the support threshold, without touching
//      the collection;
//   2. singletons read exactly off the map's row totals, and previously
//      counted itemsets replay from a sharded LRU cache;
//   3. everything else shares one batched, deterministic exact count.
// The front-end answers tiers 1-2 on its own thread; only tier 3 is
// batched.
//
// This example runs the whole stack in-process: it starts the TCP
// front-end on an ephemeral loopback port, plays a client against it, and
// shuts down gracefully. The same stack is exposed on the command line as
// `ossm_cli serve` / `ossm_cli query`.
//
// Build & run:  ./build/examples/support_server

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <span>
#include <string>

#include "core/ossm_builder.h"
#include "datagen/quest_generator.h"
#include "serve/batcher.h"
#include "serve/query_engine.h"
#include "serve/server.h"

namespace {

int ConnectLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

int main() {
  using namespace ossm;

  // A market-basket-shaped collection and an OSSM over it.
  QuestConfig data_config;
  data_config.num_items = 200;
  data_config.num_transactions = 10000;
  data_config.avg_transaction_size = 8;
  data_config.num_patterns = 30;
  data_config.seed = 7;
  StatusOr<TransactionDatabase> db = GenerateQuest(data_config);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  OssmBuildOptions build_options;
  build_options.algorithm = SegmentationAlgorithm::kRandomGreedy;
  build_options.target_segments = 32;
  StatusOr<OssmBuildResult> build = BuildOssm(*db, build_options);
  if (!build.ok()) {
    std::fprintf(stderr, "%s\n", build.status().ToString().c_str());
    return 1;
  }

  // The serving stack: engine (three tiers) <- batcher (coalesces the
  // exact counts that queue during a wave) <- TCP front-end (answers tiers
  // 1-2 itself). Threshold 1% of the collection.
  serve::QueryEngineConfig engine_config;
  engine_config.min_support = db->num_transactions() / 100;
  serve::QueryEngine engine(&*db, &build->map, engine_config);
  serve::Batcher batcher(&engine, serve::BatcherConfig{});
  serve::ServerConfig server_config;
  server_config.port = 0;  // ephemeral
  serve::SupportServer server(&engine, &batcher, server_config);
  if (Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("serving %llu transactions on 127.0.0.1:%u (minsup %llu)\n\n",
              static_cast<unsigned long long>(db->num_transactions()),
              server.port(),
              static_cast<unsigned long long>(engine.min_support()));

  // Demo itemsets drawn from the data itself (a synthetic domain this
  // sparse leaves many item ids unused): a pair that really co-occurs,
  // plus its items as singletons.
  ItemId a = 0, b = 1;
  for (uint64_t t = 0; t < db->num_transactions(); ++t) {
    std::span<const ItemId> txn = db->transaction(t);
    if (txn.size() >= 2) {
      a = txn[0];
      b = txn[1];
      break;
    }
  }
  const std::string pair = std::to_string(a) + " " + std::to_string(b);

  // A client session over the line protocol: one request per line, one
  // response per line, in order.
  int fd = ConnectLoopback(server.port());
  if (fd < 0) {
    std::fprintf(stderr, "connect failed\n");
    return 1;
  }
  const std::string requests =
      "PING\n"
      // singleton: exact from the map's row totals
      "Q " + std::to_string(a) + "\n" +
      // pair: bound screen, then exact scan if it passes
      "Q " + pair + "\n" +
      // repeat: cache hit (or the singleton/reject tier again)
      "Q " + pair + "\n" +
      // likely below threshold: bound-rejected without a scan
      "Q 190 191 192\n"
      "STATS\n"
      "QUIT\n";
  size_t sent = 0;
  while (sent < requests.size()) {
    ssize_t n = ::write(fd, requests.data() + sent, requests.size() - sent);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string responses;
  char chunk[4096];
  for (;;) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    responses.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  std::printf("request -> response\n");
  size_t req_start = 0, resp_start = 0;
  while (req_start < requests.size()) {
    size_t req_end = requests.find('\n', req_start);
    size_t resp_end = responses.find('\n', resp_start);
    if (resp_end == std::string::npos) break;
    std::printf("  %-16s -> %s\n",
                requests.substr(req_start, req_end - req_start).c_str(),
                responses.substr(resp_start, resp_end - resp_start).c_str());
    req_start = req_end + 1;
    resp_start = resp_end + 1;
  }

  // Graceful shutdown: stop accepting, drain in-flight work, join.
  server.Shutdown();
  batcher.Shutdown();
  serve::EngineStats stats = engine.Stats();
  std::printf(
      "\nserved %llu queries: %llu bound-rejected, %llu singleton, "
      "%llu cache, %llu exact\n",
      static_cast<unsigned long long>(stats.queries),
      static_cast<unsigned long long>(stats.bound_rejects),
      static_cast<unsigned long long>(stats.singleton_hits),
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.exact_counts));
  return 0;
}

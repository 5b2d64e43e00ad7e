// In-process loopback test of the full serving stack: TCP front-end ->
// batcher -> engine, answers checked bit-for-bit against a straight scan of
// the database, at 1 and 4 pool threads.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/ossm_builder.h"
#include "core/ossm_updater.h"
#include "datagen/quest_generator.h"
#include "parallel/thread_pool.h"
#include "serve/batcher.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/telemetry.h"

namespace ossm {
namespace serve {
namespace {

struct Fixture {
  TransactionDatabase db;
  SegmentSupportMap map;
};

Fixture MakeFixture() {
  QuestConfig config;
  config.num_items = 60;
  config.num_transactions = 2500;
  config.avg_transaction_size = 6;
  config.num_patterns = 15;
  config.seed = 29;
  StatusOr<TransactionDatabase> db = GenerateQuest(config);
  OSSM_CHECK(db.ok());
  OssmBuildOptions options;
  options.algorithm = SegmentationAlgorithm::kRandomGreedy;
  options.target_segments = 20;
  options.transactions_per_page = 125;
  StatusOr<OssmBuildResult> build = BuildOssm(*db, options);
  OSSM_CHECK(build.ok());
  return Fixture{std::move(*db), std::move(build->map)};
}

uint64_t OracleSupport(const TransactionDatabase& db,
                       const Itemset& itemset) {
  uint64_t support = 0;
  for (uint64_t t = 0; t < db.num_transactions(); ++t) {
    if (db.Contains(t, itemset)) ++support;
  }
  return support;
}

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

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::write(fd, data.data() + sent, data.size() - sent);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Reads until `count` newline-terminated lines have arrived (or EOF).
std::vector<std::string> ReadLines(int fd, size_t count) {
  std::vector<std::string> lines;
  std::string buffer;
  char chunk[4096];
  while (lines.size() < count) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (;;) {
      size_t newline = buffer.find('\n', start);
      if (newline == std::string::npos) break;
      lines.push_back(buffer.substr(start, newline - start));
      start = newline + 1;
    }
    buffer.erase(0, start);
  }
  return lines;
}

// One full client round against a fresh serving stack: pipelined mixed
// queries (rejects, singletons, repeats for the cache, errors), every
// answer checked against the oracle.
void RunLoopbackRound(uint32_t pool_threads) {
  SCOPED_TRACE("pool_threads=" + std::to_string(pool_threads));
  parallel::SetDefaultThreadCount(pool_threads);
  Fixture fx = MakeFixture();
  const uint64_t minsup = fx.db.num_transactions() / 20;  // 5%

  QueryEngineConfig engine_config;
  engine_config.min_support = minsup;
  QueryEngine engine(&fx.db, &fx.map, engine_config);
  BatcherConfig batcher_config;
  batcher_config.max_batch = 16;
  Batcher batcher(&engine, batcher_config);
  ServerConfig server_config;
  server_config.port = 0;
  SupportServer server(&engine, &batcher, server_config);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  struct Expectation {
    std::string line;
    Itemset itemset;  // empty: expect ERR
  };
  std::vector<Expectation> expectations;
  for (ItemId a = 0; a < 40; ++a) {
    expectations.push_back({"Q " + std::to_string(a), {a}});
    Itemset pair = {a, static_cast<ItemId>(a + 17)};
    expectations.push_back(
        {"Q " + std::to_string(a) + " " + std::to_string(a + 17), pair});
  }
  // Repeats: the second occurrence may come from the cache; the answer
  // must not change.
  expectations.push_back({"Q 3 20", {3, 20}});
  expectations.push_back({"Q 3 20", {3, 20}});
  // Errors: out-of-domain item and a non-numeric token.
  expectations.push_back({"Q 5000", {}});
  expectations.push_back({"Q 1 banana", {}});

  std::string payload = "PING\n";
  for (const Expectation& e : expectations) payload += e.line + "\n";
  payload += "STATS\nQUIT\n";

  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, payload));
  std::vector<std::string> lines = ReadLines(fd, expectations.size() + 3);
  ::close(fd);
  ASSERT_EQ(lines.size(), expectations.size() + 3);

  EXPECT_EQ(lines.front(), "PONG");
  EXPECT_EQ(lines.back(), "BYE");
  EXPECT_EQ(lines[lines.size() - 2].rfind("STATS ", 0), 0u);

  for (size_t i = 0; i < expectations.size(); ++i) {
    const Expectation& e = expectations[i];
    const std::string& response = lines[i + 1];
    if (e.itemset.empty()) {
      EXPECT_EQ(response.rfind("ERR", 0), 0u) << e.line << " -> " << response;
      continue;
    }
    uint64_t exact = OracleSupport(fx.db, e.itemset);
    if (response.rfind("OK ", 0) == 0) {
      EXPECT_EQ(std::stoull(response.substr(3)), exact)
          << e.line << " -> " << response;
    } else if (response.rfind("RJ ", 0) == 0) {
      uint64_t bound = std::stoull(response.substr(3));
      EXPECT_LT(bound, minsup) << e.line << " -> " << response;
      EXPECT_LE(exact, bound) << e.line << " -> " << response;
    } else {
      ADD_FAILURE() << e.line << " -> unexpected " << response;
    }
  }

  server.Shutdown();
  batcher.Shutdown();
  // After shutdown the port no longer accepts.
  int refused = ConnectLoopback(server.port());
  if (refused >= 0) ::close(refused);
  EXPECT_LT(refused, 0);
}

TEST(ServeLoopbackTest, AnswersMatchOracleSingleThreaded) {
  RunLoopbackRound(1);
  parallel::SetDefaultThreadCount(parallel::DefaultThreadCount());
}

TEST(ServeLoopbackTest, AnswersMatchOracleFourThreads) {
  RunLoopbackRound(4);
  parallel::SetDefaultThreadCount(parallel::DefaultThreadCount());
}

TEST(ServeLoopbackTest, TwoConnectionsAreIndependent) {
  Fixture fx = MakeFixture();
  QueryEngineConfig engine_config;
  engine_config.min_support = 1;
  QueryEngine engine(&fx.db, &fx.map, engine_config);
  Batcher batcher(&engine, BatcherConfig{});
  ServerConfig server_config;
  server_config.port = 0;
  SupportServer server(&engine, &batcher, server_config);
  ASSERT_TRUE(server.Start().ok());

  int a = ConnectLoopback(server.port());
  int b = ConnectLoopback(server.port());
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  ASSERT_TRUE(SendAll(a, "Q 1 2\nQUIT\n"));
  ASSERT_TRUE(SendAll(b, "PING\nQUIT\n"));
  std::vector<std::string> from_a = ReadLines(a, 2);
  std::vector<std::string> from_b = ReadLines(b, 2);
  ::close(a);
  ::close(b);
  ASSERT_EQ(from_a.size(), 2u);
  ASSERT_EQ(from_b.size(), 2u);
  // {1,2} may or may not clear the bound screen; either way it's answered.
  EXPECT_TRUE(from_a[0].rfind("OK ", 0) == 0 ||
              from_a[0].rfind("RJ ", 0) == 0)
      << from_a[0];
  EXPECT_EQ(from_b[0], "PONG");
  EXPECT_GE(server.connections_accepted(), 2u);
  server.Shutdown();
  batcher.Shutdown();
}

// Splits "METRICS <n>" / "SLOWLOG <n>" multi-line responses: asserts the
// header, then returns the n body lines that follow it in `lines` starting
// at `index` (which advances past the response).
std::vector<std::string> TakeBody(const std::vector<std::string>& lines,
                                  size_t& index, const std::string& verb) {
  EXPECT_LT(index, lines.size());
  const std::string& header = lines[index];
  EXPECT_EQ(header.rfind(verb + " ", 0), 0u) << header;
  size_t n = std::stoull(header.substr(verb.size() + 1));
  ++index;
  std::vector<std::string> body;
  for (size_t i = 0; i < n && index < lines.size(); ++i, ++index) {
    body.push_back(lines[index]);
  }
  EXPECT_EQ(body.size(), n);
  return body;
}

// Minimal Prometheus text-format check shared with the CI smoke: TYPE
// comments or `series value` lines, nothing else.
void ExpectValidExposition(const std::vector<std::string>& body) {
  for (const std::string& line : body) {
    ASSERT_FALSE(line.empty());
    if (line.rfind("# TYPE ", 0) == 0) continue;
    ASSERT_EQ(line[0] == '#', false) << line;
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    char* end = nullptr;
    std::strtod(line.c_str() + space + 1, &end);
    EXPECT_TRUE(end != nullptr && *end == '\0') << line;
  }
}

double SeriesValue(const std::vector<std::string>& body,
                   const std::string& series) {
  for (const std::string& line : body) {
    if (line.size() > series.size() && line[series.size()] == ' ' &&
        line.compare(0, series.size(), series) == 0) {
      return std::strtod(line.c_str() + series.size() + 1, nullptr);
    }
  }
  ADD_FAILURE() << "series not found: " << series;
  return -1.0;
}

// The telemetry round: traffic through the full stack with a
// log-everything slowlog threshold, then STATS key order, a parsing
// METRICS exposition whose counters match the traffic, and a SLOWLOG tail
// that captured the queries.
TEST(ServeLoopbackTest, MetricsSlowlogAndStatsRoundTrip) {
  Fixture fx = MakeFixture();
  ServeTelemetry::Config telemetry_config;
  telemetry_config.slowlog_threshold_us = 0;  // every query is "slow"
  ServeTelemetry telemetry(telemetry_config);

  QueryEngineConfig engine_config;
  engine_config.min_support = fx.db.num_transactions() / 20;
  engine_config.telemetry = &telemetry;
  QueryEngine engine(&fx.db, &fx.map, engine_config);
  BatcherConfig batcher_config;
  batcher_config.max_batch = 8;
  batcher_config.telemetry = &telemetry;
  Batcher batcher(&engine, batcher_config);
  ServerConfig server_config;
  server_config.port = 0;
  server_config.telemetry = &telemetry;
  SupportServer server(&engine, &batcher, server_config);
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kQueries = 24;
  std::string payload;
  for (size_t i = 0; i < kQueries; ++i) {
    payload += "Q " + std::to_string(i % 40) + "\n";
  }
  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, payload));
  std::vector<std::string> answers = ReadLines(fd, kQueries);
  ASSERT_EQ(answers.size(), kQueries);
  for (const std::string& answer : answers) {
    EXPECT_TRUE(answer.rfind("OK ", 0) == 0 || answer.rfind("RJ ", 0) == 0)
        << answer;
  }

  // Scrape after the answers have drained: STATS/METRICS/SLOWLOG are
  // evaluated when their request line is parsed, so a scraper that wants
  // to see completed traffic must not race it down the same pipeline.
  ASSERT_TRUE(SendAll(fd, "STATS\nMETRICS\nSLOWLOG 5\nSLOWLOG\nQUIT\n"));
  std::vector<std::string> lines = ReadLines(fd, 500);
  ::close(fd);
  ASSERT_GE(lines.size(), 4u);
  EXPECT_EQ(lines.back(), "BYE");

  size_t index = 0;
  // STATS: the documented key order, existing keys first, new keys after.
  const std::string& stats = lines[index++];
  ASSERT_EQ(stats.rfind("STATS ", 0), 0u);
  size_t cursor = 0;
  for (const char* key :
       {"queries=", "bound_rejects=", "singleton_hits=", "cache_hits=",
        "exact_counts=", "cache_size=", "batches=", "coalesced=",
        "backpressure=", "queue_depth=", "queue_wait_p50_us=",
        "queue_wait_p95_us=", "queue_wait_p99_us="}) {
    size_t at = stats.find(key, cursor);
    ASSERT_NE(at, std::string::npos) << key << " missing in " << stats;
    cursor = at;
  }

  std::vector<std::string> metrics = TakeBody(lines, index, "METRICS");
  ASSERT_FALSE(metrics.empty());
  ExpectValidExposition(metrics);
  EXPECT_EQ(SeriesValue(metrics, "ossm_serve_queries_total"),
            static_cast<double>(kQueries));
  EXPECT_EQ(SeriesValue(metrics, "ossm_serve_request_us_count"),
            static_cast<double>(kQueries));
  EXPECT_GE(SeriesValue(metrics, "ossm_serve_slowlog_entries_total"),
            static_cast<double>(kQueries));
  // Windowed quantiles are ordered like quantiles.
  double p50 = SeriesValue(
      metrics, "ossm_serve_request_us{window=\"1m\",quantile=\"0.5\"}");
  double p99 = SeriesValue(
      metrics, "ossm_serve_request_us{window=\"1m\",quantile=\"0.99\"}");
  EXPECT_LE(p50, p99);

  std::vector<std::string> tail = TakeBody(lines, index, "SLOWLOG");
  ASSERT_EQ(tail.size(), 5u);  // capped by the request count
  for (const std::string& entry : tail) {
    EXPECT_EQ(entry.rfind("age_us=", 0), 0u) << entry;
    EXPECT_NE(entry.find(" total_us="), std::string::npos) << entry;
    EXPECT_NE(entry.find(" tier="), std::string::npos) << entry;
    EXPECT_NE(entry.find(" items="), std::string::npos) << entry;
  }
  // Bare SLOWLOG returns the default 16 entries.
  std::vector<std::string> bare = TakeBody(lines, index, "SLOWLOG");
  EXPECT_EQ(bare.size(), 16u);

  EXPECT_EQ(lines[index], "BYE");
  server.Shutdown();
  batcher.Shutdown();
}

// Tiers 1-2 answer on the event loop: a bound reject, a singleton and a
// cache hit each come back without the batcher dispatching a wave, and
// each is already counted in METRICS when its reply has been read.
TEST(ServeLoopbackTest, ScanFreeQueriesAreAnsweredWithoutAWave) {
  Fixture fx = MakeFixture();
  const uint64_t minsup = fx.db.num_transactions() / 20;
  Itemset reject;
  Itemset cached;
  for (ItemId a = 0; a < fx.db.num_items() && (reject.empty() ||
                                               cached.empty());
       ++a) {
    for (ItemId b = a + 1; b < fx.db.num_items(); ++b) {
      const uint64_t bound = fx.map.UpperBoundPair(a, b);
      if (reject.empty() && bound < minsup) reject = {a, b};
      if (cached.empty() && bound >= minsup) cached = {a, b};
    }
  }
  Itemset singleton;
  for (ItemId a = 0; a < fx.db.num_items() && singleton.empty(); ++a) {
    if (fx.map.Support(a) >= minsup) singleton = {a};
  }
  ASSERT_FALSE(reject.empty());
  ASSERT_FALSE(cached.empty());
  ASSERT_FALSE(singleton.empty());

  ServeTelemetry telemetry{ServeTelemetry::Config{}};
  QueryEngineConfig engine_config;
  engine_config.min_support = minsup;
  engine_config.telemetry = &telemetry;
  QueryEngine engine(&fx.db, &fx.map, engine_config);
  // Counted straight through the engine, so the socket query below is a
  // cache hit.
  ASSERT_TRUE(engine.Query(cached).ok());
  BatcherConfig batcher_config;
  batcher_config.telemetry = &telemetry;
  Batcher batcher(&engine, batcher_config);
  ServerConfig server_config;
  server_config.port = 0;
  server_config.telemetry = &telemetry;
  SupportServer server(&engine, &batcher, server_config);
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);

  // Scrapes on its own connection, read to EOF, as Prometheus would.
  auto scrape = [&] {
    int admin = ConnectLoopback(server.port());
    EXPECT_GE(admin, 0);
    EXPECT_TRUE(SendAll(admin, "METRICS\nQUIT\n"));
    std::vector<std::string> lines = ReadLines(admin, 100000);
    ::close(admin);
    size_t index = 0;
    return TakeBody(lines, index, "METRICS");
  };
  std::vector<std::string> base = scrape();
  const double base_queries = SeriesValue(base, "ossm_serve_queries_total");
  const double base_requests =
      SeriesValue(base, "ossm_serve_request_us_count");

  struct Case {
    Itemset itemset;
    std::string reply;
    const char* tier_series;
  };
  const Case cases[] = {
      {reject, "RJ " + std::to_string(fx.map.UpperBound(reject)),
       "ossm_serve_bound_rejects_total"},
      {singleton,
       "OK " + std::to_string(OracleSupport(fx.db, singleton)) + " singleton",
       "ossm_serve_singleton_hits_total"},
      {cached, "OK " + std::to_string(OracleSupport(fx.db, cached)) + " cache",
       "ossm_serve_cache_hits_total"},
  };
  double answered = 0;
  for (const Case& c : cases) {
    std::string line = "Q";
    for (ItemId item : c.itemset) {
      line += ' ';
      line += std::to_string(item);
    }
    SCOPED_TRACE(line);
    const double tier_before = SeriesValue(scrape(), c.tier_series);
    ASSERT_TRUE(SendAll(fd, line + "\n"));
    std::vector<std::string> reply = ReadLines(fd, 1);
    ASSERT_EQ(reply.size(), 1u);
    EXPECT_EQ(reply[0], c.reply);
    EXPECT_EQ(batcher.batches_dispatched(), 0u);
    ++answered;
    std::vector<std::string> metrics = scrape();
    EXPECT_EQ(SeriesValue(metrics, c.tier_series), tier_before + 1);
    EXPECT_EQ(SeriesValue(metrics, "ossm_serve_queries_total"),
              base_queries + answered);
    EXPECT_EQ(SeriesValue(metrics, "ossm_serve_request_us_count"),
              base_requests + answered);
  }
  EXPECT_EQ(SeriesValue(scrape(), "ossm_serve_batches_total"), 0.0);
  ::close(fd);
  server.Shutdown();
  batcher.Shutdown();
}

// An OssmUpdater appending through WithMapExclusive while a client streams
// bound rejects: the loop reads the map under the shared lock, appends only
// grow Eq. (1), so every reject's bound stays at or above the exact
// support, and queries the grown bound admits are counted exactly.
TEST(ServeLoopbackTest, RejectsStaySoundWhileTheMapGrows) {
  Fixture fx = MakeFixture();
  const uint64_t minsup = fx.db.num_transactions() / 20;
  SegmentSupportMap map = fx.map;  // the appends mutate it
  std::vector<Itemset> rejects;
  for (ItemId a = 0; a < fx.db.num_items() && rejects.size() < 48; ++a) {
    for (ItemId b = a + 1; b < fx.db.num_items() && rejects.size() < 48;
         b += 7) {
      if (map.UpperBoundPair(a, b) < minsup) rejects.push_back({a, b});
    }
  }
  ASSERT_FALSE(rejects.empty());
  std::vector<uint64_t> oracle;
  for (const Itemset& itemset : rejects) {
    oracle.push_back(OracleSupport(fx.db, itemset));
  }

  QueryEngineConfig engine_config;
  engine_config.min_support = minsup;
  QueryEngine engine(&fx.db, &map, engine_config);
  Batcher batcher(&engine, BatcherConfig{});
  ServerConfig server_config;
  server_config.port = 0;
  SupportServer server(&engine, &batcher, server_config);
  ASSERT_TRUE(server.Start().ok());

  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  std::string round;
  for (const Itemset& itemset : rejects) {
    round += "Q " + std::to_string(itemset[0]) + " " +
             std::to_string(itemset[1]) + "\n";
  }

  // Incoming pages touch every third item once, so most bounds stay below
  // minsup for the whole run and the stream stays mostly rejects.
  std::vector<uint64_t> page_counts(fx.db.num_items(), 0);
  for (ItemId i = 0; i < fx.db.num_items(); i += 3) page_counts[i] = 1;
  std::atomic<bool> streaming{true};
  std::atomic<uint64_t> appends{0};
  std::atomic<bool> append_failed{false};
  std::thread writer([&] {
    OssmUpdater updater(&map);
    while (streaming.load()) {
      engine.WithMapExclusive([&](SegmentSupportMap&) {
        if (!updater.AppendPage(page_counts, AppendPolicy::kRoundRobin).ok()) {
          append_failed.store(true);
        }
      });
      appends.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  uint64_t reject_replies = 0;
  // A failed assertion returns from the lambda only, so the writer is
  // always stopped and joined below.
  [&] {
    for (int r = 0; r < 40; ++r) {
      ASSERT_TRUE(SendAll(fd, round));
      std::vector<std::string> replies = ReadLines(fd, rejects.size());
      ASSERT_EQ(replies.size(), rejects.size());
      for (size_t i = 0; i < rejects.size(); ++i) {
        const std::string& reply = replies[i];
        if (reply.rfind("RJ ", 0) == 0) {
          ++reject_replies;
          const uint64_t bound = std::stoull(reply.substr(3));
          EXPECT_LT(bound, minsup) << reply;
          EXPECT_GE(bound, oracle[i]) << "pair " << i << " -> " << reply;
        } else {
          ASSERT_EQ(reply.rfind("OK ", 0), 0u) << reply;
          EXPECT_EQ(std::stoull(reply.substr(3)), oracle[i])
              << "pair " << i << " -> " << reply;
        }
      }
    }
  }();
  streaming.store(false);
  writer.join();
  ::close(fd);
  server.Shutdown();
  batcher.Shutdown();
  EXPECT_FALSE(append_failed.load());
  EXPECT_GT(appends.load(), 0u);
  EXPECT_GT(reject_replies, 0u);
}

// Without a telemetry instance the new verbs answer with empty bodies, and
// on a zero-traffic server with telemetry the exposition still parses.
TEST(ServeLoopbackTest, MetricsAndSlowlogOnQuietServers) {
  Fixture fx = MakeFixture();
  QueryEngine engine(&fx.db, &fx.map, QueryEngineConfig{});
  Batcher batcher(&engine, BatcherConfig{});
  {
    ServerConfig config;  // no telemetry wired
    config.port = 0;
    SupportServer server(&engine, &batcher, config);
    ASSERT_TRUE(server.Start().ok());
    int fd = ConnectLoopback(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(SendAll(fd, "METRICS\nSLOWLOG\nQUIT\n"));
    std::vector<std::string> lines = ReadLines(fd, 3);
    ::close(fd);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0], "METRICS 0");
    EXPECT_EQ(lines[1], "SLOWLOG 0");
    EXPECT_EQ(lines[2], "BYE");
    server.Shutdown();
  }
  {
    ServeTelemetry telemetry;
    ServerConfig config;
    config.port = 0;
    config.telemetry = &telemetry;
    SupportServer server(&engine, &batcher, config);
    ASSERT_TRUE(server.Start().ok());
    int fd = ConnectLoopback(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(SendAll(fd, "METRICS\nSLOWLOG\nQUIT\n"));
    std::vector<std::string> lines = ReadLines(fd, 200);
    ::close(fd);
    ASSERT_GE(lines.size(), 3u);
    size_t index = 0;
    std::vector<std::string> metrics = TakeBody(lines, index, "METRICS");
    ASSERT_FALSE(metrics.empty());  // counters exist even with no traffic
    ExpectValidExposition(metrics);
    EXPECT_EQ(SeriesValue(metrics, "ossm_serve_queries_total"), 0.0);
    std::vector<std::string> tail = TakeBody(lines, index, "SLOWLOG");
    EXPECT_TRUE(tail.empty());
    EXPECT_EQ(lines[index], "BYE");
    server.Shutdown();
  }
  batcher.Shutdown();
}

TEST(ServeLoopbackTest, ProfileVerbAnswersFramedFoldedStacks) {
  Fixture fx = MakeFixture();
  QueryEngine engine(&fx.db, &fx.map, QueryEngineConfig{});
  Batcher batcher(&engine, BatcherConfig{});
  ServerConfig server_config;
  server_config.port = 0;
  SupportServer server(&engine, &batcher, server_config);
  ASSERT_TRUE(server.Start().ok());

  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  // A short window on a quiet server: the frame must come back well-formed
  // whether or not any SIGPROF fired (an idle process burns no CPU time,
  // so zero samples is the common case here).
  ASSERT_TRUE(SendAll(fd, "PROFILE 50\nPING\nQUIT\n"));
  std::vector<std::string> lines = ReadLines(fd, 200);
  ::close(fd);
  ASSERT_GE(lines.size(), 3u);
  size_t index = 0;
  std::vector<std::string> body = TakeBody(lines, index, "PROFILE");
  for (const std::string& folded : body) {
    // "frame(;frame)* count"
    size_t space = folded.rfind(' ');
    ASSERT_NE(space, std::string::npos) << folded;
    EXPECT_GT(std::stoull(folded.substr(space + 1)), 0u) << folded;
  }
  // The profile blocked only its own slot: the pipelined PING still
  // answered, in order, after it.
  EXPECT_EQ(lines[index++], "PONG");
  EXPECT_EQ(lines[index], "BYE");
  server.Shutdown();
  batcher.Shutdown();
}

TEST(ServeLoopbackTest, ConcurrentProfileIsRejectedNotQueued) {
  Fixture fx = MakeFixture();
  QueryEngine engine(&fx.db, &fx.map, QueryEngineConfig{});
  Batcher batcher(&engine, BatcherConfig{});
  ServerConfig server_config;
  server_config.port = 0;
  SupportServer server(&engine, &batcher, server_config);
  ASSERT_TRUE(server.Start().ok());

  // Two pipelined PROFILEs: the second is dispatched while the first's
  // sampling window is open, so it must fail fast with ERR instead of
  // serializing behind the first (the sampler is process-global).
  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "PROFILE 300\nPROFILE 300\nQUIT\n"));
  std::vector<std::string> lines = ReadLines(fd, 200);
  ::close(fd);
  ASSERT_GE(lines.size(), 3u);
  size_t index = 0;
  TakeBody(lines, index, "PROFILE");  // first one completes normally
  EXPECT_EQ(lines[index].rfind("ERR", 0), 0u) << lines[index];
  EXPECT_NE(lines[index].find("already"), std::string::npos) << lines[index];
  ++index;
  EXPECT_EQ(lines[index], "BYE");
  server.Shutdown();
  batcher.Shutdown();
}

TEST(ServeLoopbackTest, OversizedRequestLineClosesConnection) {
  Fixture fx = MakeFixture();
  QueryEngine engine(&fx.db, &fx.map, QueryEngineConfig{});
  Batcher batcher(&engine, BatcherConfig{});
  ServerConfig server_config;
  server_config.port = 0;
  server_config.max_line_bytes = 64;
  SupportServer server(&engine, &batcher, server_config);
  ASSERT_TRUE(server.Start().ok());

  int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  std::string runaway(1024, '1');  // no newline in sight
  ASSERT_TRUE(SendAll(fd, runaway));
  std::vector<std::string> lines = ReadLines(fd, 1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("ERR", 0), 0u);
  // The server hangs up after the error: the next read sees EOF.
  char byte = 0;
  EXPECT_EQ(::read(fd, &byte, 1), 0);
  ::close(fd);
  server.Shutdown();
  batcher.Shutdown();
}

}  // namespace
}  // namespace serve
}  // namespace ossm

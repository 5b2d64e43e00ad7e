// `serve-paced` and `serve-scan`: the serving stack (QueryEngine ->
// Batcher -> SupportServer) in this process on an ephemeral loopback
// port, configured with `ossm_cli serve`'s defaults, driven over one TCP
// connection.
//
//   serve-paced  open loop at a fixed rate far below capacity; a sparse
//                collection (tier 3 is the CSR sweep) and a Zipf-skewed
//                pool of 1-3-itemsets, so every tier answers part of it and
//                each request is alone in its batching window.
//   serve-scan   closed loop keeping several max_batch waves in flight; a
//                dense collection (tier 3 is the bitmap AND + planner) and
//                distinct 2-4-itemsets that pass the Eq. (1) screen, so
//                nearly every answer is an exact count.

#include <algorithm>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "client.h"
#include "common/random.h"
#include "core/ossm_io.h"
#include "data/bitmap_index.h"
#include "data/dataset_io.h"
#include "obs/obs.h"
#include "serve/batcher.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/telemetry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ossm::Itemset;
using ossm::Status;
using ossm::serve::QueryResult;
using ossm::serve::QueryTier;

struct Shape {
  uint32_t items;
  uint64_t transactions;
  double avg_transaction_size;
  double threshold;       // serving minsup, as a fraction of transactions
  uint32_t pool_size;     // distinct itemsets the stream draws from
  uint32_t min_items;
  uint32_t max_items;
  bool screened_only;     // keep only itemsets whose bound passes minsup
  bool open_loop;
  double rate_qps;        // open loop: fixed offered rate
  uint32_t in_flight;     // closed loop: requests kept outstanding
  double zipf_exponent;   // open loop: popularity skew over the pool
  double tail_percentile;
  uint32_t span_stride;   // traced runs keep every n-th request's spans
};

// Sparse: 4 of 1000 items per transaction is below kAuto's density rule
// (bitmap footprint <= 4x CSR), so tier 3 is the CSR sweep. 500 qps puts
// 2 ms between requests, twice the 1 ms batching window, so each request
// waits out the window alone. At `ossm_cli serve`'s default 1% threshold
// the screen rejects ~93% of the stream and each other tier answers a few
// percent. The tail is p75: p90 sits at the knee where the few sweeps and
// the host's late wake-ups begin, and spread 0.26 of its median over twelve
// runs even with the busy-polling client.
constexpr Shape kPaced{.items = 1000,
                       .transactions = 100000,
                       .avg_transaction_size = 4.0,
                       .threshold = 0.01,
                       .pool_size = 4096,
                       .min_items = 1,
                       .max_items = 3,
                       .screened_only = false,
                       .open_loop = true,
                       .rate_qps = 500.0,
                       .in_flight = 0,
                       .zipf_exponent = 1.0,
                       .tail_percentile = 75.0,
                       .span_stride = 1};
// Dense: 10 of 400 items selects the bitmap tier. 512 in flight is eight
// max_batch waves, so waves fill and the window never expires. The pool is
// 4x the 65536-entry cache, so cycling it never hits the cache. The tail is
// p75: in runs where the host took a sixth of the CPU, p90 spread 0.28 of
// its median over five seeds, p75 0.18.
constexpr Shape kScan{.items = 400,
                      .transactions = 100000,
                      .avg_transaction_size = 10.0,
                      .threshold = 0.001,
                      .pool_size = 262144,
                      .min_items = 2,
                      .max_items = 4,
                      .screened_only = true,
                      .open_loop = false,
                      .rate_qps = 0.0,
                      .in_flight = 512,
                      .zipf_exponent = 0.0,
                      .tail_percentile = 75.0,
                      .span_stride = 256};

// `ossm_cli serve` defaults.
constexpr uint32_t kMaxBatch = 64;
constexpr uint32_t kMaxDelayUs = 1000;
constexpr uint32_t kMaxQueue = 4096;
constexpr uint64_t kCacheCapacity = 1 << 16;
constexpr uint32_t kCacheShards = 16;

constexpr int kSetupReps = 7;
constexpr size_t kReservoir = 1 << 16;
// p50 and the tail are medians over 100-ms windows of the pass, each
// keeping a sample of at most kLatencySample latencies: the host steals CPU
// in bursts of a fraction of a second, and shorter windows leave more of
// them clean. The closed loop's rate is the median over 1-s windows.
constexpr int64_t kLatencyWindowNs = 100'000'000;
constexpr size_t kLatencySample = 1 << 10;
constexpr int64_t kRateWindowNs = 1'000'000'000;
constexpr int64_t kDrainNs = 2'000'000'000;

const Shape& ShapeFor(const std::string& workload) {
  return workload == "serve-paced" ? kPaced : kScan;
}

uint64_t MinSupport(const Shape& shape) {
  return std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(
             shape.threshold * static_cast<double>(shape.transactions))));
}

// ---- inputs ----

// The client's side of the stream: rendered request lines, the true
// support of each (from the independent oracle in Prepare), and, for the
// in-process replays of a traced run, the itemsets themselves.
struct Stream {
  Itemset warmup;
  std::string text;
  std::vector<uint32_t> offsets;  // line i is text[offsets[i], offsets[i+1])
  std::vector<uint64_t> truth;
  std::vector<uint8_t> sizes;
  std::vector<Itemset> itemsets;  // traced runs only

  size_t size() const { return truth.size(); }
  std::string_view line(size_t i) const {
    return std::string_view(text).substr(offsets[i],
                                         offsets[i + 1] - offsets[i]);
  }
};

// Exact supports by AND + popcount over per-item transaction bitsets
// built here from the CSR rows: independent of every serving tier.
std::vector<uint64_t> OracleSupports(const ossm::TransactionDatabase& db,
                                     const std::vector<Itemset>& itemsets) {
  size_t words = (db.num_transactions() + 63) / 64;
  std::vector<uint64_t> bits(static_cast<size_t>(db.num_items()) * words);
  for (uint64_t t = 0; t < db.num_transactions(); ++t) {
    for (ossm::ItemId item : db.transaction(t)) {
      bits[item * words + t / 64] |= uint64_t{1} << (t % 64);
    }
  }
  std::vector<uint64_t> supports;
  supports.reserve(itemsets.size());
  std::vector<uint64_t> acc(words);
  for (const Itemset& itemset : itemsets) {
    const uint64_t* first = &bits[itemset[0] * words];
    std::copy(first, first + words, acc.begin());
    for (size_t k = 1; k < itemset.size(); ++k) {
      const uint64_t* row = &bits[itemset[k] * words];
      for (size_t w = 0; w < words; ++w) acc[w] &= row[w];
    }
    uint64_t count = 0;
    for (uint64_t word : acc) count += std::popcount(word);
    supports.push_back(count);
  }
  return supports;
}

// Items drawn in proportion to their support, without repeats.
Itemset DrawItemset(ossm::Rng& rng, const std::vector<double>& cdf,
                    uint32_t size) {
  Itemset items;
  while (items.size() < size) {
    double u = rng.UniformDouble() * cdf.back();
    auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    ossm::ItemId item = static_cast<ossm::ItemId>(
        std::min<size_t>(it - cdf.begin(), cdf.size() - 1));
    if (std::find(items.begin(), items.end(), item) == items.end()) {
      items.push_back(item);
    }
  }
  std::sort(items.begin(), items.end());
  return items;
}

Status WriteStream(const std::string& path, const Itemset& warmup,
                   const std::vector<Itemset>& pool,
                   const std::vector<uint64_t>& truth) {
  std::ofstream out(path);
  out << "warmup";
  for (ossm::ItemId item : warmup) out << ' ' << item;
  out << '\n';
  for (size_t i = 0; i < pool.size(); ++i) {
    out << truth[i];
    for (ossm::ItemId item : pool[i]) out << ' ' << item;
    out << '\n';
  }
  out.close();
  return out ? Status::OK() : Status::IOError("cannot write " + path);
}

Status ReadStream(const std::string& path, bool keep_itemsets,
                  Stream* stream) {
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line) || !line.starts_with("warmup")) {
    return Status::Corruption("bad stream file " + path);
  }
  std::istringstream head(line.substr(6));
  for (ossm::ItemId item; head >> item;) stream->warmup.push_back(item);
  stream->offsets.push_back(0);
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    uint64_t truth = 0;
    if (!(fields >> truth)) return Status::Corruption("bad stream line");
    Itemset itemset;
    for (ossm::ItemId item; fields >> item;) itemset.push_back(item);
    if (itemset.empty()) return Status::Corruption("empty stream itemset");
    stream->text += 'Q';
    for (ossm::ItemId item : itemset) {
      stream->text += ' ';
      stream->text += std::to_string(item);
    }
    stream->text += '\n';
    stream->offsets.push_back(static_cast<uint32_t>(stream->text.size()));
    stream->truth.push_back(truth);
    stream->sizes.push_back(static_cast<uint8_t>(itemset.size()));
    if (keep_itemsets) stream->itemsets.push_back(std::move(itemset));
  }
  if (stream->truth.empty() || stream->warmup.empty()) {
    return Status::Corruption("empty stream file " + path);
  }
  return Status::OK();
}

// Open loop: pool indices by Zipf rank, seeded.
std::vector<uint32_t> ZipfSequence(size_t pool, double exponent, uint64_t n,
                                   uint64_t seed) {
  std::vector<double> cdf(pool);
  double total = 0;
  for (size_t r = 0; r < pool; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf[r] = total;
  }
  ossm::Rng rng(seed);
  std::vector<uint32_t> sequence(n);
  for (uint64_t i = 0; i < n; ++i) {
    double u = rng.UniformDouble() * total;
    sequence[i] = static_cast<uint32_t>(std::min<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
        pool - 1));
  }
  return sequence;
}

// ---- the stack under test ----

struct Loaded {
  std::unique_ptr<ossm::TransactionDatabase> db;
  std::unique_ptr<ossm::SegmentSupportMap> map;
};

// Torn down server first (drains and joins its loop), then the batcher
// (drains and joins its dispatch thread), then the engine and telemetry
// both of them point at — on every exit path, via the destructor.
struct Stack {
  Stack() = default;
  ~Stack() { Reset(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  void Reset() {
    server.reset();
    batcher.reset();
    engine.reset();
    telemetry.reset();
  }

  std::unique_ptr<ossm::serve::ServeTelemetry> telemetry;
  std::unique_ptr<ossm::serve::QueryEngine> engine;
  std::unique_ptr<ossm::serve::Batcher> batcher;
  std::unique_ptr<ossm::serve::SupportServer> server;
  ossm::serve::EngineStats after_warmup;
};

enum class Layers { kEngine, kBatcher, kServer };

// Builds engine (+ warm-up), then batcher and server as asked.
Status BuildStack(const Loaded& loaded, const Shape& shape,
                  const Itemset& warmup, Layers layers, SpanLog* spans,
                  int32_t parent, Stack* stack) {
  {
    ScopedSpan span(spans, "serve.engine", parent);
    stack->telemetry = std::make_unique<ossm::serve::ServeTelemetry>();
    ossm::serve::QueryEngineConfig config;
    config.min_support = MinSupport(shape);
    config.cache_capacity = kCacheCapacity;
    config.cache_shards = kCacheShards;
    config.bitmap_mode = ossm::serve::BitmapMode::kAuto;
    config.enable_planner = true;
    config.telemetry = stack->telemetry.get();
    stack->engine = std::make_unique<ossm::serve::QueryEngine>(
        loaded.db.get(), loaded.map.get(), config);
    // Forces the lazy tier-3 structures (the bitmap index on dense data)
    // so no measured request pays for them.
    ossm::StatusOr<QueryResult> warm = stack->engine->Query(warmup);
    if (!warm.ok()) return warm.status();
    stack->after_warmup = stack->engine->Stats();
  }
  if (layers == Layers::kEngine) return Status::OK();
  ScopedSpan span(spans, "serve.start", parent);
  ossm::serve::BatcherConfig batcher_config;
  batcher_config.max_batch = kMaxBatch;
  batcher_config.max_delay_us = kMaxDelayUs;
  batcher_config.max_queue = kMaxQueue;
  batcher_config.telemetry = stack->telemetry.get();
  stack->batcher = std::make_unique<ossm::serve::Batcher>(
      stack->engine.get(), batcher_config);
  if (layers == Layers::kBatcher) return Status::OK();
  ossm::serve::ServerConfig server_config;
  server_config.bind_address = "127.0.0.1";
  server_config.port = 0;
  server_config.telemetry = stack->telemetry.get();
  stack->server = std::make_unique<ossm::serve::SupportServer>(
      stack->engine.get(), stack->batcher.get(), server_config);
  return stack->server->Start();
}

// ---- passes ----

struct PassResult {
  LatencySummary latency;          // medians over 100-ms windows
  std::vector<double> latency_ms;  // sorted sample of the whole pass
  uint64_t population = 0;         // latencies observed
  std::vector<double> late_ms;     // open loop: sender lateness
  Tally tally;
  double seconds = 0.0;
  double ops_per_s = 0.0;  // correct completions per second
  uint64_t completed = 0;
  uint64_t by_kind[6] = {};  // replies by Reply::Kind
  uint64_t exact_answers = 0;
  uint64_t exact_ands = 0;  // sum of |X| - 1 over exact answers
  uint64_t bound_items = 0;  // sum of |X| over requests
};

struct Plan {
  const Shape* shape;
  const Stream* stream;
  std::vector<uint32_t> sequence;  // open loop: pool index per request
  OpenLoopSchedule schedule;
  double seconds = 0.0;
  uint64_t seed = 0;

  size_t PoolIndex(uint64_t request) const {
    return shape->open_loop ? sequence[request] : request % stream->size();
  }
};

// Per-request bookkeeping shared by every pass.
class Recorder {
 public:
  Recorder(const Plan& plan, int64_t start_ns);

  // A reply to the request timed from `timed_from_ns` (when it was due in
  // the open loop, sent in the closed loop) arrived at `answered_ns`.
  void Answer(size_t pool_index, const Reply& reply, int64_t timed_from_ns,
              int64_t answered_ns) {
    Outcome outcome = Judge(reply, stream_.truth[pool_index], min_support_);
    result_.tally.Add(outcome);
    if (outcome == Outcome::kOk) rate_windows_.Add(answered_ns);
    double latency_ms = (answered_ns - timed_from_ns) / 1e6;
    reservoir_.Add(latency_ms);
    latency_windows_.Add(timed_from_ns, latency_ms);
    ++result_.completed;
    ++result_.by_kind[static_cast<int>(reply.kind)];
    result_.bound_items += stream_.sizes[pool_index];
    if (reply.kind == Reply::Kind::kExact) {
      ++result_.exact_answers;
      result_.exact_ands += stream_.sizes[pool_index] - 1u;
    }
  }
  void Missing(uint64_t n) { result_.tally.Add(Outcome::kMissing, n); }

  // `end_ns` is when the last answer came back.
  PassResult Finish(int64_t end_ns) {
    // Every request timed from within the planned pass is answered or
    // counted missing by now, so each window inside it is complete.
    result_.latency = SummarizeWindows(
        latency_windows_.Sorted(start_ns_ + planned_ns_), tail_percentile_);
    result_.latency_ms = reservoir_.Sorted();
    result_.population = reservoir_.seen();
    result_.seconds = std::max<int64_t>(end_ns - start_ns_, 1) / 1e9;
    // A closed loop's rate moves with the host, so it is the median of 1-s
    // windows; an open loop completes what it was offered.
    result_.ops_per_s =
        open_loop_ ? result_.tally.ok() / result_.seconds
                   : rate_windows_.MedianRate(end_ns);
    return std::move(result_);
  }
  PassResult& result() { return result_; }

 private:
  const Stream& stream_;
  uint64_t min_support_;
  bool open_loop_;
  double tail_percentile_;
  int64_t start_ns_;
  int64_t planned_ns_;
  LatencyReservoir reservoir_;
  LatencyWindows latency_windows_;
  RateWindows rate_windows_;
  PassResult result_;
};

Recorder::Recorder(const Plan& plan, int64_t start_ns)
    : stream_(*plan.stream),
      min_support_(MinSupport(*plan.shape)),
      open_loop_(plan.shape->open_loop),
      tail_percentile_(plan.shape->tail_percentile),
      start_ns_(start_ns),
      planned_ns_(static_cast<int64_t>(plan.seconds * 1e9)),
      reservoir_(kReservoir, plan.seed),
      latency_windows_(start_ns, kLatencyWindowNs, kLatencySample,
                       plan.seed),
      rate_windows_(start_ns, kRateWindowNs) {}

Reply ToReply(const ossm::StatusOr<QueryResult>& result) {
  Reply reply;
  if (!result.ok()) {
    reply.kind = Reply::Kind::kError;
    return reply;
  }
  reply.value = result->support;
  switch (result->tier) {
    case QueryTier::kBoundReject: reply.kind = Reply::Kind::kReject; break;
    case QueryTier::kSingleton: reply.kind = Reply::Kind::kSingleton; break;
    case QueryTier::kCacheHit: reply.kind = Reply::Kind::kCache; break;
    case QueryTier::kExact: reply.kind = Reply::Kind::kExact; break;
  }
  return reply;
}

void AddSpan(SpanLog* spans, const Plan& plan, const char* name,
             uint64_t request, int64_t begin, int64_t end) {
  if (spans->enabled() && request % plan.shape->span_stride == 0) {
    spans->Add(name, begin, end, -1, request + 1);
  }
}

// Open loop over the socket, from this one thread: it busy-polls, writing
// each request when it falls due and reading replies (in request order) as
// they arrive, until all arrive or the drain deadline passes. A sleeping
// sender and reader would add two of the host's wake-ups to every request:
// in runs where other guests took 6-10% of the VM's CPU, that moved p75
// from 1.30 ms to between 1.77 and 2.77 ms.
PassResult SocketOpenLoop(const Plan& plan, uint16_t port, SpanLog* spans) {
  const uint64_t n = plan.sequence.size();
  std::unique_ptr<LineClient> client = LineClient::Connect(port);
  if (client == nullptr) {  // the server's failure: nothing gets answered
    Recorder recorder(plan, NowNs());
    recorder.Missing(n);
    return recorder.Finish(NowNs());
  }
  const int64_t start = NowNs() + 20'000'000;
  const int64_t deadline = start + plan.schedule.DueNs(n) + kDrainNs;
  std::vector<int64_t> sent_ns(n, 0);
  std::vector<int64_t> recv_ns(n, 0);
  std::vector<Reply> replies(n);
  uint64_t sent = 0;
  uint64_t received = 0;
  bool write_failed = false;
  while (received < n) {
    int64_t now = NowNs();
    if (sent < n && !write_failed && now >= start + plan.schedule.DueNs(sent)) {
      sent_ns[sent] = now;
      if (client->WriteAll(plan.stream->line(plan.sequence[sent]))) {
        ++sent;
      } else {
        write_failed = true;
      }
      continue;
    }
    if (now > deadline || (write_failed && received >= sent)) break;
    LineClient::ReadStatus status =
        client->ReadLines(0, [&](std::string_view line) {
          if (received == n) return;
          recv_ns[received] = NowNs();
          replies[received] = ParseReply(line);
          ++received;
        });
    if (status == LineClient::ReadStatus::kClosed) break;
  }
  Recorder recorder(plan, start);
  for (uint64_t j = 0; j < received; ++j) {
    int64_t due = start + plan.schedule.DueNs(j);
    recorder.Answer(plan.sequence[j], replies[j], due, recv_ns[j]);
    AddSpan(spans, plan, "client.request", j, due, recv_ns[j]);
  }
  recorder.Missing(n - received);
  std::vector<double>& late_ms = recorder.result().late_ms;
  for (uint64_t i = 0; i < sent; ++i) {
    late_ms.push_back(plan.schedule.LatenessMs(start, i, sent_ns[i]));
  }
  std::sort(late_ms.begin(), late_ms.end());
  return recorder.Finish(received > 0 ? recv_ns[received - 1] : start);
}

// Closed loop over the socket: keeps in_flight requests outstanding on one
// connection, writing one new request per reply, for `seconds`; then
// drains what is still in flight.
PassResult SocketClosedLoop(const Plan& plan, uint16_t port,
                            SpanLog* spans) {
  const uint32_t window = plan.shape->in_flight;
  std::unique_ptr<LineClient> client = LineClient::Connect(port);
  if (client == nullptr) {  // the server's failure: nothing gets answered
    Recorder recorder(plan, NowNs());
    recorder.Missing(window);
    return recorder.Finish(NowNs());
  }
  std::vector<int64_t> sent_ns(window, 0);
  uint64_t next = 0;
  uint64_t done = 0;
  std::string batch;
  auto send_upto = [&](uint64_t target) {
    batch.clear();
    uint64_t first = next;
    for (; next < target; ++next) {
      batch += plan.stream->line(plan.PoolIndex(next));
    }
    int64_t now = NowNs();
    for (uint64_t i = first; i < next; ++i) sent_ns[i % window] = now;
    return batch.empty() || client->WriteAll(batch);
  };
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(plan.seconds * 1e9);
  Recorder recorder(plan, start);
  int64_t last_reply = start;
  bool ok = send_upto(window);
  while (ok) {
    LineClient::ReadStatus status =
        client->ReadLines(50, [&](std::string_view line) {
          if (done == next) return;
          int64_t now = NowNs();
          int64_t sent = sent_ns[done % window];
          recorder.Answer(plan.PoolIndex(done), ParseReply(line), sent, now);
          AddSpan(spans, plan, "client.request", done, sent, now);
          last_reply = now;
          ++done;
        });
    if (status == LineClient::ReadStatus::kClosed) break;
    int64_t now = NowNs();
    if (now < stop) {
      ok = send_upto(done + window);
    } else if (done == next || now > stop + kDrainNs) {
      break;
    }
  }
  recorder.Missing(next - done);
  return recorder.Finish(last_reply);
}

// Engine replay: the same requests straight into QueryEngine::QueryBatch —
// one at a time on the open-loop schedule, or max_batch consecutive
// requests per call (the waves the batcher forms) in the closed loop.
PassResult EngineReplay(const Plan& plan, ossm::serve::QueryEngine& engine,
                        SpanLog* spans) {
  const int64_t start = NowNs() + 20'000'000;
  Recorder recorder(plan, start);
  int64_t last = start;
  std::vector<Itemset> wave;
  std::vector<uint64_t> requests;
  if (plan.shape->open_loop) {
    for (uint64_t i = 0; i < plan.sequence.size(); ++i) {
      int64_t due = start + plan.schedule.DueNs(i);
      SpinUntilNs(due);
      wave.assign(1, plan.stream->itemsets[plan.sequence[i]]);
      auto results = engine.QueryBatch(wave);
      last = NowNs();
      recorder.Answer(plan.sequence[i],
                      results.ok() ? ToReply((*results)[0])
                                   : ToReply(results.status()),
                      due, last);
      AddSpan(spans, plan, "engine.request", i, due, last);
    }
  } else {
    SleepUntilNs(start);
    const int64_t stop = start + static_cast<int64_t>(plan.seconds * 1e9);
    for (uint64_t i = 0; NowNs() < stop;) {
      wave.clear();
      requests.clear();
      for (uint32_t k = 0; k < kMaxBatch; ++k, ++i) {
        requests.push_back(i);
        wave.push_back(plan.stream->itemsets[plan.PoolIndex(i)]);
      }
      int64_t begin = NowNs();
      auto results = engine.QueryBatch(wave);
      last = NowNs();
      for (size_t k = 0; k < requests.size(); ++k) {
        recorder.Answer(plan.PoolIndex(requests[k]),
                        results.ok() ? ToReply((*results)[k])
                                     : ToReply(results.status()),
                        begin, last);
        AddSpan(spans, plan, "engine.request", requests[k], begin, last);
      }
    }
  }
  return recorder.Finish(last);
}

// Batcher replay: the same requests through Batcher::SubmitAsync, on the
// open-loop schedule or keeping in_flight outstanding. Shuts the batcher
// down before returning, so no callback outlives this frame.
PassResult BatcherReplay(const Plan& plan, ossm::serve::Batcher& batcher,
                         SpanLog* spans) {
  const int64_t start = NowNs() + 20'000'000;
  Recorder recorder(plan, start);
  std::mutex mu;  // guards everything below against the dispatch thread
  std::condition_variable progress;
  uint64_t submitted = 0;
  uint64_t completed = 0;
  bool closed = false;  // past the drain deadline: late answers are missing
  int64_t last = start;
  const uint64_t window = plan.shape->open_loop ? UINT64_MAX
                                                : plan.shape->in_flight;
  auto submit = [&](uint64_t request, int64_t timed_from) {
    size_t pool_index = plan.PoolIndex(request);
    {
      std::lock_guard<std::mutex> lock(mu);
      ++submitted;
    }
    Status admitted = batcher.SubmitAsync(
        plan.stream->itemsets[pool_index],
        [&, request, pool_index,
         timed_from](const ossm::StatusOr<QueryResult>& result) {
          int64_t now = NowNs();
          std::lock_guard<std::mutex> lock(mu);
          if (closed) return;
          recorder.Answer(pool_index, ToReply(result), timed_from, now);
          AddSpan(spans, plan, "batcher.request", request, timed_from, now);
          last = now;
          ++completed;
          progress.notify_all();
        });
    if (!admitted.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      int64_t now = NowNs();
      recorder.Answer(pool_index, Reply{Reply::Kind::kError, 0}, now, now);
      ++completed;
    }
  };
  if (plan.shape->open_loop) {
    for (uint64_t i = 0; i < plan.sequence.size(); ++i) {
      int64_t due = start + plan.schedule.DueNs(i);
      SpinUntilNs(due);
      submit(i, due);
    }
  } else {
    SleepUntilNs(start);
    const int64_t stop = start + static_cast<int64_t>(plan.seconds * 1e9);
    for (uint64_t i = 0; NowNs() < stop; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        progress.wait(lock, [&] { return submitted - completed < window; });
      }
      submit(i, NowNs());
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    progress.wait_for(lock, std::chrono::nanoseconds(kDrainNs),
                      [&] { return completed == submitted; });
    closed = true;
    recorder.Missing(submitted - completed);
  }
  batcher.Shutdown();
  return recorder.Finish(last);
}

// One untraced socket pass is the end-to-end measurement.
PassResult SocketPass(const Plan& plan, uint16_t port, SpanLog* spans) {
  return plan.shape->open_loop ? SocketOpenLoop(plan, port, spans)
                               : SocketClosedLoop(plan, port, spans);
}

// Value of `key=` in a STATS line; 0 when absent.
double StatsValue(const std::string& line, const std::string& key) {
  std::string needle = " " + key + "=";
  size_t at = line.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

double Share(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / whole;
}

}  // namespace

Status PrepareServe(const RunOptions& options) {
  const Shape& shape = ShapeFor(options.workload);
  ossm::StatusOr<ossm::TransactionDatabase> db =
      ossm::GenerateQuest(DriftingQuest(shape.items, shape.transactions,
                                        shape.avg_transaction_size,
                                        options.seed));
  if (!db.ok()) return db.status();
  OSSM_RETURN_IF_ERROR(
      ossm::DatasetIo::SaveBinary(*db, DataPath(options.dir)));

  // The map is prebuilt: serving loads it. The bubble list (Section 5.3)
  // restricts segmentation to the quarter of the items nearest minsup.
  ossm::OssmBuildOptions build = MapRecipe(options.seed);
  build.bubble_fraction = 0.25;
  build.bubble_threshold = shape.threshold;
  ossm::StatusOr<ossm::OssmBuildResult> built = ossm::BuildOssm(*db, build);
  if (!built.ok()) return built.status();
  OSSM_RETURN_IF_ERROR(ossm::OssmIo::Save(built->map, MapPath(options.dir)));

  std::vector<uint64_t> supports = db->ComputeItemSupports();
  std::vector<double> cdf(supports.size());
  double total = 0;
  for (size_t i = 0; i < supports.size(); ++i) {
    total += static_cast<double>(supports[i]);
    cdf[i] = total;
  }
  const uint64_t min_support = MinSupport(shape);
  ossm::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 17);
  std::set<Itemset> seen;
  Itemset warmup;
  while (warmup.empty()) {
    Itemset candidate = DrawItemset(rng, cdf, 2);
    if (built->map.UpperBound(candidate) >= min_support) warmup = candidate;
  }
  seen.insert(warmup);
  std::vector<Itemset> pool;
  uint64_t attempts = 0;
  while (pool.size() < shape.pool_size) {
    if (++attempts > 100ull * shape.pool_size) {
      return Status::Internal("cannot draw enough distinct stream itemsets");
    }
    uint32_t size = shape.min_items +
                    static_cast<uint32_t>(rng.UniformInt(
                        shape.max_items - shape.min_items + 1));
    Itemset itemset = DrawItemset(rng, cdf, size);
    if (shape.screened_only &&
        built->map.UpperBound(itemset) < min_support) {
      continue;
    }
    if (seen.insert(itemset).second) pool.push_back(std::move(itemset));
  }
  // Draw order would put popular items first; the closed loop cycles the
  // pool, so spread them out.
  rng.Shuffle(pool);
  return WriteStream(StreamPath(options.dir), warmup, pool,
                     OracleSupports(*db, pool));
}

Status RunServe(const RunOptions& options, SpanLog* spans,
                WorkloadReport* report) {
  const Shape& shape = ShapeFor(options.workload);
  Stream stream;
  OSSM_RETURN_IF_ERROR(
      ReadStream(StreamPath(options.dir), options.trace, &stream));
  Plan plan{&shape, &stream, {}, {}, options.seconds, options.seed};
  if (shape.open_loop) {
    plan.schedule.interval_ns = static_cast<int64_t>(1e9 / shape.rate_qps);
    uint64_t n = plan.schedule.CountWithin(
        static_cast<int64_t>(options.seconds * 1e9));
    plan.sequence = ZipfSequence(stream.size(), shape.zipf_exponent, n,
                                 options.seed);
  }

  // ---- set-up, repeated; the last stack is the one measured ----
  Loaded loaded;
  Stack stack;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.Reset();
    loaded = Loaded();
    // Hand the previous repetition's memory back, so peak_rss_mb sees one
    // set-up, not the fragmentation of several.
    malloc_trim(0);
    int64_t start = NowNs();
    ScopedSpan setup(spans, "setup");
    {
      ScopedSpan span(spans, "data.load", setup.id());
      ossm::StatusOr<ossm::TransactionDatabase> db =
          ossm::DatasetIo::LoadBinary(DataPath(options.dir));
      if (!db.ok()) return db.status();
      loaded.db = std::make_unique<ossm::TransactionDatabase>(std::move(*db));
    }
    {
      ScopedSpan span(spans, "core.map_load", setup.id());
      ossm::StatusOr<ossm::SegmentSupportMap> map =
          ossm::OssmIo::Load(MapPath(options.dir));
      if (!map.ok()) return map.status();
      loaded.map = std::make_unique<ossm::SegmentSupportMap>(std::move(*map));
    }
    OSSM_RETURN_IF_ERROR(BuildStack(loaded, shape, stream.warmup,
                                    Layers::kServer, spans, setup.id(),
                                    &stack));
    setup_s.push_back((NowNs() - start) / 1e9);
  }
  report->notes.emplace_back("rss_mb_after_setup", FormatNumber(PeakRssMb()));
  const ossm::TransactionDatabase& db = *loaded.db;
  bool bitmaps = stack.engine->uses_bitmap_index();
  double density = static_cast<double>(db.total_item_occurrences()) /
                   static_cast<double>(db.num_transactions()) /
                   static_cast<double>(db.num_items());
  char shape_note[320];
  std::snprintf(
      shape_note, sizeof(shape_note),
      "%llu transactions x %u items, density %.5f, tier 3 = %s; minsup %llu; "
      "%zu distinct %u-%u-itemsets; %s",
      static_cast<unsigned long long>(db.num_transactions()), db.num_items(),
      density, bitmaps ? "bitmap AND + planner" : "CSR sweep",
      static_cast<unsigned long long>(MinSupport(shape)), stream.size(),
      shape.min_items, shape.max_items,
      shape.open_loop
          ? ("open loop, " + std::to_string(static_cast<int>(shape.rate_qps)) +
             " qps, Zipf over the pool")
                .c_str()
          : ("closed loop, " + std::to_string(shape.in_flight) +
             " in flight, pool cycled")
                .c_str());
  report->notes.emplace_back("data", shape_note);
  report->notes.emplace_back(
      "oracle", "every reply judged against bitset containment counts of "
                "all " + std::to_string(stream.size()) +
                    " stream itemsets, computed before the run");

  // ---- the end-to-end pass ----
  SpanLog quiet(false);
  PassResult untraced = SocketPass(plan, stack.server->port(), &quiet);
  double peak_rss_mb = PeakRssMb();
  report->tally = untraced.tally;
  char mix[160];
  const uint64_t* kinds = untraced.by_kind;
  std::snprintf(mix, sizeof(mix),
                "singleton %llu, cache %llu, exact %llu, reject %llu, "
                "error %llu, malformed %llu",
                static_cast<unsigned long long>(kinds[0]),
                static_cast<unsigned long long>(kinds[1]),
                static_cast<unsigned long long>(kinds[2]),
                static_cast<unsigned long long>(kinds[3]),
                static_cast<unsigned long long>(kinds[4]),
                static_cast<unsigned long long>(kinds[5]));
  report->notes.emplace_back("replies", mix);
  if (!options.trace) {
    AddEndToEnd(setup_s, untraced.latency, untraced.latency_ms,
                untraced.population, untraced.tally, untraced.ops_per_s,
                peak_rss_mb, report);
    return Status::OK();
  }

  // ---- traced: replay the stream one layer deeper each time ----
  stack.Reset();
  ossm::obs::EnableMetricsCollection();
  PassResult engine_pass, batcher_pass, socket_pass;
  {
    Stack fresh;
    OSSM_RETURN_IF_ERROR(BuildStack(loaded, shape, stream.warmup,
                                    Layers::kEngine, spans, -1, &fresh));
    engine_pass = EngineReplay(plan, *fresh.engine, spans);
  }
  {
    Stack fresh;
    OSSM_RETURN_IF_ERROR(BuildStack(loaded, shape, stream.warmup,
                                    Layers::kBatcher, spans, -1, &fresh));
    batcher_pass = BatcherReplay(plan, *fresh.batcher, spans);
  }
  Stack fresh;
  OSSM_RETURN_IF_ERROR(BuildStack(loaded, shape, stream.warmup,
                                  Layers::kServer, spans, -1, &fresh));
  uint64_t batches_before = fresh.batcher->batches_dispatched();
  socket_pass = SocketPass(plan, fresh.server->port(), spans);
  std::string stats_line;
  if (std::unique_ptr<LineClient> admin =
          LineClient::Connect(fresh.server->port())) {
    stats_line = admin->RoundTrip("STATS\n", 2000);
  }
  if (!stats_line.starts_with("STATS")) {
    return Status::IOError("no STATS reply from the server");
  }
  ossm::serve::EngineStats stats = fresh.engine->Stats();
  const ossm::serve::EngineStats& base = fresh.after_warmup;
  uint64_t queries = stats.queries - base.queries;
  uint64_t batches = fresh.batcher->batches_dispatched() - batches_before;
  uint64_t saved = stats.planner_saved - base.planner_saved;
  for (const PassResult* pass : {&engine_pass, &batcher_pass, &socket_pass}) {
    report->tally.Add(Outcome::kOk, pass->tally.ok());
    report->tally.Add(Outcome::kWrong, pass->tally.count(Outcome::kWrong));
    report->tally.Add(Outcome::kError, pass->tally.count(Outcome::kError));
    report->tally.Add(Outcome::kMissing, pass->tally.count(Outcome::kMissing));
  }

  std::map<std::string, double>& layers = report->layers;
  layers["data.load_ms"] = Median(spans->SelfMs("data.load"));
  layers["core.map_load_ms"] = Median(spans->SelfMs("core.map_load"));
  // Each layer's self time is the difference between adjacent replays:
  // per-request latency medians in the open loop, per-request cost
  // (seconds / completed) in the closed loop.
  auto per_request_us = [&](const PassResult& pass) {
    if (shape.open_loop) return pass.latency.p50_ms * 1e3;
    return pass.completed == 0 ? 0.0 : pass.seconds * 1e6 / pass.completed;
  };
  double engine_us = per_request_us(engine_pass);
  double batcher_us = per_request_us(batcher_pass);
  double socket_us = per_request_us(socket_pass);
  layers["serve.engine_us"] = engine_us;
  layers["serve.batcher_us"] = batcher_us - engine_us;
  layers["serve.server_us"] = socket_us - batcher_us;
  layers["serve.queue_wait_p50_us"] = StatsValue(stats_line,
                                                 "queue_wait_p50_us");
  layers["serve.wave_size"] = Share(socket_pass.completed, batches);
  layers["serve.reject_share"] =
      Share(stats.bound_rejects - base.bound_rejects, queries);
  layers["serve.singleton_share"] =
      Share(stats.singleton_hits - base.singleton_hits, queries);
  layers["serve.cache_share"] = Share(stats.cache_hits - base.cache_hits,
                                      queries);
  layers["serve.exact_share"] = Share(stats.exact_counts - base.exact_counts,
                                      queries);
  layers["serve.planner_saved_share"] = Share(saved, socket_pass.exact_ands);
  layers["serve.backpressure"] = StatsValue(stats_line, "backpressure");
  // Computed, not measured: Eq. (1) reads |X| rows of `segments` uint64s
  // per request; a bitmap AND streams one row per AND actually performed.
  layers["kernels.bound_bytes"] =
      Share(socket_pass.bound_items, socket_pass.completed) *
      loaded.map->num_segments() * 8.0;
  if (fresh.engine->uses_bitmap_index() && socket_pass.exact_answers > 0) {
    double row_bytes =
        static_cast<double>(ossm::BitmapIndex::FootprintBytesFor(
            db.num_items(), db.num_transactions())) /
        db.num_items();
    double ands = static_cast<double>(socket_pass.exact_ands) -
                  static_cast<double>(saved);
    layers["kernels.and_bytes"] =
        row_bytes * std::max(0.0, ands) / socket_pass.exact_answers;
  }
  layers["gen.late_p90_ms"] = Percentile(socket_pass.late_ms, 90);
  layers["parallel.task_us_p50"] = RegistryP50("pool.task_us");
  layers["parallel.queue_wait_us_p50"] = RegistryP50("pool.queue_wait_us");
  layers["parallel.imbalance_pct"] = RegistryP50("pool.imbalance_pct");
  double untraced_p50 = untraced.latency.p50_ms;
  layers["obs.overhead_share"] =
      untraced_p50 > 0 ? socket_pass.latency.p50_ms / untraced_p50 - 1.0
                       : 0.0;

  char derivation[400];
  std::snprintf(
      derivation, sizeof(derivation),
      "replays: engine %.1f us, batcher %.1f us, socket %.1f us per request "
      "(%s); tier shares of %llu queries; planner_saved_share base %llu "
      "naive ANDs; wave_size = %llu requests / %llu batches",
      engine_us, batcher_us, socket_us,
      shape.open_loop ? "median latency" : "seconds / completed",
      static_cast<unsigned long long>(queries),
      static_cast<unsigned long long>(socket_pass.exact_ands),
      static_cast<unsigned long long>(socket_pass.completed),
      static_cast<unsigned long long>(batches));
  report->notes.emplace_back("layers", derivation);
  report->notes.emplace_back("stats", stats_line);
  return Status::OK();
}

}  // namespace perfbench

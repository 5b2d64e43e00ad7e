// ossm_perfbench: the repository benchmark's binary.
//
//   ossm_perfbench prepare --workload W --seed N --dir D
//       writes the workload's inputs (data file, map file, request stream)
//       into D, untimed;
//   ossm_perfbench run --workload W --seed N --seconds S --trace 0|1
//                      --dir D [--trace-out FILE] [--source-rev REV]
//       sets up from those files, measures for S seconds, checks every
//       answer and prints the result line last on stdout: the end-to-end
//       metrics with --trace 0, the per-layer metrics with --trace 1.
//
// perfbench/run.py builds this binary and drives both steps.

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "storage/storage_env.h"
#include "workloads.h"

namespace perfbench {

std::string DataPath(const std::string& dir) { return dir + "/data.bin"; }
std::string MapPath(const std::string& dir) { return dir + "/map.ossm"; }
std::string StreamPath(const std::string& dir) { return dir + "/stream.txt"; }

ossm::QuestConfig DriftingQuest(uint32_t items, uint64_t transactions,
                                double avg_transaction_size, uint64_t seed) {
  ossm::QuestConfig config;
  config.num_items = items;
  config.num_transactions = transactions;
  config.avg_transaction_size = avg_transaction_size;
  config.avg_pattern_size = 3.0;
  config.num_patterns = items;
  config.corruption_mean = 0.25;
  config.num_seasons = 8;
  config.in_season_boost = 6.0;
  config.seed = seed;
  return config;
}

ossm::OssmBuildOptions MapRecipe(uint64_t seed) {
  ossm::OssmBuildOptions options;
  options.algorithm = ossm::SegmentationAlgorithm::kRandomGreedy;
  options.target_segments = 40;
  options.transactions_per_page = 100;
  options.seed = seed;
  return options;
}

double RegistryP50(const std::string& histogram) {
  ossm::obs::MetricsSnapshot snapshot =
      ossm::obs::MetricsRegistry::Global().Snapshot();
  for (const auto& [name, value] : snapshot.histograms) {
    if (name == histogram) return value.p50;
  }
  return 0.0;
}

void AddEndToEnd(const std::vector<double>& setup_samples,
                 const LatencySummary& latency,
                 const std::vector<double>& sorted_latency_ms,
                 uint64_t latency_population, const Tally& tally,
                 double ops_per_s, double peak_rss_mb,
                 WorkloadReport* report) {
  const TailPick& tail = latency.tail;
  std::string reps;
  for (double s : setup_samples) {
    reps += (reps.empty() ? "" : " ") + FormatNumber(s);
  }
  report->notes.emplace_back("setup_s", "median of " + reps);
  report->end_to_end = {
      {"setup_s", Median(setup_samples), "s"},
      {"p50_ms", latency.p50_ms, "ms"},
      {"tail_ms", tail.value, "ms"},
      {"ops_per_s", ops_per_s, "1/s"},
      {"ok_share", tally.ok_share(), "ratio"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  char note[240];
  if (latency.windows > 1) {
    std::snprintf(note, sizeof(note),
                  "p%g, median over %zu windows of each window's p%g, from "
                  "%llu ops; the smallest window has %llu latencies (%llu "
                  "beyond it)%s",
                  tail.percentile, latency.windows, tail.percentile,
                  static_cast<unsigned long long>(latency_population),
                  static_cast<unsigned long long>(tail.samples),
                  static_cast<unsigned long long>(tail.beyond),
                  tail.degraded ? "; preferred percentile lacked 10 beyond"
                                : "");
  } else {
    std::snprintf(note, sizeof(note),
                  "p%g of %llu latencies (%llu beyond it) sampled from %llu "
                  "ops%s",
                  tail.percentile,
                  static_cast<unsigned long long>(tail.samples),
                  static_cast<unsigned long long>(tail.beyond),
                  static_cast<unsigned long long>(latency_population),
                  tail.degraded ? "; preferred percentile lacked 10 beyond"
                                : "");
  }
  report->notes.emplace_back("tail_ms", note);
  std::string ladder;
  for (double p : {50.0, 75.0, 90.0, 95.0, 99.0}) {
    ladder += (ladder.empty() ? "p" : " p") + FormatNumber(p) + "=" +
              FormatNumber(Percentile(sorted_latency_ms, p));
  }
  report->notes.emplace_back("latency_ms", ladder);
}

namespace {

// Must match BENCHMARK.json's per_layer list.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"data.load_ms", "ms"},
    {"core.build_s", "s"},
    {"core.ossub_evals", "count"},
    {"core.map_load_ms", "ms"},
    {"core.bound_calls", "count"},
    {"core.bound_ms", "ms"},
    {"core.prune_share", "ratio"},
    {"mining.op_ms.hi", "ms"},
    {"mining.op_ms.mid", "ms"},
    {"mining.op_ms.lo", "ms"},
    {"mining.count_ms", "ms"},
    {"mining.counted", "count"},
    {"mining.c2_survival", "ratio"},
    {"mining.frequent", "count"},
    {"parallel.task_us_p50", "us"},
    {"parallel.queue_wait_us_p50", "us"},
    {"parallel.imbalance_pct", "%"},
    {"kernels.bound_bytes", "B"},
    {"kernels.and_bytes", "B"},
    {"serve.engine_us", "us"},
    {"serve.batcher_us", "us"},
    {"serve.server_us", "us"},
    {"serve.queue_wait_p50_us", "us"},
    {"serve.wave_size", "count"},
    {"serve.reject_share", "ratio"},
    {"serve.singleton_share", "ratio"},
    {"serve.cache_share", "ratio"},
    {"serve.exact_share", "ratio"},
    {"serve.planner_saved_share", "ratio"},
    {"serve.backpressure", "count"},
    {"gen.late_p90_ms", "ms"},
    {"obs.overhead_share", "ratio"},
};

// Ends the process if the workload overruns its deadline: a hung server
// or client must not hang the benchmark. Exiting also ends every thread.
class Watchdog {
 public:
  explicit Watchdog(double seconds)
      : thread_([this, seconds] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!done_cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                                 [this] { return done_; })) {
            std::fprintf(stderr, "perfbench: deadline of %.0f s exceeded\n",
                         seconds);
            std::fflush(stderr);
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    done_cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable done_cv_;
  bool done_ = false;
  std::thread thread_;
};

struct Args {
  std::string command;
  RunOptions options;
  std::string trace_out;
  std::string source_rev = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->options.workload = value;
    } else if (key == "--seed") {
      args->options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->options.trace = value == "1";
    } else if (key == "--dir") {
      args->options.dir = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else if (key == "--source-rev") {
      args->source_rev = value;
    } else {
      return false;
    }
  }
  const std::string& w = args->options.workload;
  return (args->command == "prepare" || args->command == "run") &&
         (w == "mine" || w == "serve-paced" || w == "serve-scan") &&
         !args->options.dir.empty() && args->options.seconds > 0;
}

int Fail(const ossm::Status& status) {
  std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
  return 1;
}

int Prepare(const RunOptions& options) {
  Watchdog watchdog(150.0);
  ossm::Status status = options.workload == "mine" ? PrepareMine(options)
                                                   : PrepareServe(options);
  return status.ok() ? 0 : Fail(status);
}

int Run(const Args& args) {
  const RunOptions& options = args.options;
  Watchdog watchdog(5.0 * options.seconds + 60.0);
  SpanLog spans(options.trace);
  WorkloadReport report;
  double steal_before = HostStealSeconds();
  ossm::Status status = options.workload == "mine"
                            ? RunMine(options, &spans, &report)
                            : RunServe(options, &spans, &report);
  if (!status.ok()) return Fail(status);
  report.notes.emplace_back(
      "host_steal_s", FormatNumber(HostStealSeconds() - steal_before));

  std::vector<Metric> metrics = report.end_to_end;
  if (options.trace) {
    metrics.clear();
    for (const LayerMetric& metric : kLayerMetrics) {
      auto it = report.layers.find(metric.name);
      // A layer the workload leaves idle reads 0.
      metrics.push_back({metric.name,
                         it == report.layers.end() ? 0.0 : it->second,
                         metric.unit});
    }
    if (!args.trace_out.empty() && !spans.WriteJson(args.trace_out)) {
      return Fail(ossm::Status::IOError("cannot write " + args.trace_out));
    }
  }

  // Run metadata, so numbers from different hosts or settings are never
  // compared silently.
  std::string meta = "{\"workload\": \"" + JsonEscape(options.workload) +
                     "\", \"seed\": " + std::to_string(options.seed) +
                     ", \"seconds\": " + FormatNumber(options.seconds) +
                     ", \"trace\": " + (options.trace ? "1" : "0") +
                     ", \"ossm_threads\": " +
                     std::to_string(ossm::parallel::DefaultThreadCount()) +
                     ", \"isa\": \"" +
                     std::string(ossm::kernels::IsaName(
                         ossm::kernels::ActiveIsa())) +
                     "\", \"storage\": \"" +
                     ossm::storage::BackendName(
                         ossm::storage::ActiveBackend()) +
                     "\", \"nproc\": " +
                     std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                     ", \"source_rev\": \"" + JsonEscape(args.source_rev) +
                     "\"";
  for (const auto& [key, value] : report.notes) {
    meta += ", \"" + JsonEscape(key) + "\": \"" + JsonEscape(value) + "\"";
  }
  meta += "}";
  std::printf("perfbench meta %s\n", meta.c_str());
  for (const Metric& metric : metrics) {
    std::printf("perfbench %-28s %16s %s\n", metric.name.c_str(),
                FormatNumber(metric.value).c_str(), metric.unit.c_str());
  }
  std::printf("%s\n",
              ResultLine(report.tally.failed() == 0, report.tally.attempted(),
                         report.tally.failed(), metrics)
                  .c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ossm_perfbench prepare|run --workload "
                 "mine|serve-paced|serve-scan --seed N --dir DIR "
                 "[--seconds S --trace 0|1 --trace-out FILE "
                 "--source-rev REV]\n");
    return 2;
  }
  return args.command == "prepare" ? perfbench::Prepare(args.options)
                                   : perfbench::Run(args);
}

#ifndef OSSM_BENCH_BENCH_UTIL_H_
#define OSSM_BENCH_BENCH_UTIL_H_

// Shared plumbing for the paper-figure harnesses: a tiny flag parser and the
// standard workloads. Every harness defaults to laptop-scale parameters that
// regenerate the paper's *shape* in seconds-to-minutes; pass --scale=paper
// to restore the paper's sizes. Counting passes shard across the default
// thread pool (OSSM_THREADS; set OSSM_THREADS=1 for the paper's exact
// one-core 2002 conditions — results are bit-identical either way).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/parse_flag.h"
#include "common/timer.h"
#include "data/transaction_database.h"
#include "obs/obs.h"
#include "obs/perf/perf_counters.h"
#include "obs/perf/resource_usage.h"
#include "obs/report.h"
#include "datagen/quest_generator.h"
#include "datagen/skewed_generator.h"
#include "mining/apriori.h"

namespace ossm {
namespace bench {

// Minimal --key=value parser. Unknown flags abort with a message listing
// what the harness accepts.
class Flags {
 public:
  Flags(int argc, char** argv, std::vector<std::string> known) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        std::exit(2);
      }
      size_t eq = arg.find('=');
      std::string key = arg.substr(2, eq == std::string::npos
                                          ? std::string::npos
                                          : eq - 2);
      std::string value =
          eq == std::string::npos ? "" : arg.substr(eq + 1);
      bool ok = false;
      for (const std::string& k : known) {
        if (k == key) ok = true;
      }
      if (!ok) {
        std::fprintf(stderr, "unknown flag --%s; known:", key.c_str());
        for (const std::string& k : known) {
          std::fprintf(stderr, " --%s", k.c_str());
        }
        std::fprintf(stderr, "\n");
        std::exit(2);
      }
      values_.emplace_back(key, value);
    }
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    for (const auto& [k, v] : values_) {
      if (k == key) return v;
    }
    return fallback;
  }

  // The value must parse in full and fit T: --transactions=2k,
  // --transactions=-5 or --repeats=abc exits 2 naming the flag instead of
  // running at 2, 2^64 - 5 or 0.
  template <typename T>
  T GetInt(const std::string& key, T fallback, T min = 0) const {
    for (const auto& [k, v] : values_) {
      if (k != key) continue;
      StatusOr<T> value = ParseIntFlag<T>(key, v, min);
      if (!value.ok()) {
        std::fprintf(stderr, "error: %s\n", value.status().ToString().c_str());
        std::exit(2);
      }
      return *value;
    }
    return fallback;
  }

  // Best-of count for timed mining runs. --repeats=0 would time nothing and
  // report the 1e100 s sentinel with an empty result, so it exits 2 too.
  int Repeats() const { return GetInt<int>("repeats", 2, 1); }

  bool PaperScale() const { return GetString("scale", "laptop") == "paper"; }

 private:
  std::vector<std::pair<std::string, std::string>> values_;
};

// The "regular-synthetic" workload (Section 6.1): Quest data whose mean
// item frequency sits at the 1% mining threshold, which is what makes the
// OSSM's bound bite (items hover around the threshold, as with the paper's
// m = 1000, |T| = 10 setup).
inline TransactionDatabase RegularSynthetic(uint64_t num_transactions,
                                            uint32_t num_items,
                                            uint64_t seed = 1) {
  QuestConfig config;
  config.num_items = num_items;
  config.num_transactions = num_transactions;
  config.avg_transaction_size = num_items / 100.0;  // mean support ~1%
  config.avg_pattern_size = 3.0;
  // One pattern per item on average: enough pattern mass that the top
  // patterns yield genuinely frequent 2- and 3-itemsets (multi-level
  // mining), while item supports still hover around the 1% threshold —
  // the regime in which the OSSM's bound decides candidates.
  config.num_patterns = num_items;
  config.corruption_mean = 0.25;
  config.seed = seed;
  StatusOr<TransactionDatabase> db = GenerateQuest(config);
  OSSM_CHECK(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

// The "skewed-synthetic" workload: items in-season in one phase of the
// collection. The boost controls how seasonal; 1.0 degenerates to uniform.
inline TransactionDatabase SkewedSynthetic(uint64_t num_transactions,
                                           uint32_t num_items,
                                           uint64_t seed = 1,
                                           double boost = 8.0,
                                           uint32_t seasons = 2) {
  SkewedConfig config;
  config.num_items = num_items;
  config.num_transactions = num_transactions;
  config.avg_transaction_size = num_items / 100.0;
  config.num_seasons = seasons;
  config.in_season_boost = boost;
  config.seed = seed;
  StatusOr<TransactionDatabase> db = GenerateSkewed(config);
  OSSM_CHECK(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

// Quest data with seasonal drift: the same patterns and item pool as
// RegularSynthetic, but pattern popularity shifts over the collection. On
// an exactly-i.i.d. collection, per-segment supports concentrate as N grows
// and NO segmentation — however clever — can tighten equation (1) at
// multi-million-transaction scale (verified by ablation_skew's boost=1
// row). The paper's premise is the opposite: "real life data sets are not
// random". Mild pattern drift stands in for that reality and keeps the
// cost/quality trade-off measurable at laptop scale; harnesses that default
// to it accept --data=regular to see the i.i.d. washout.
inline TransactionDatabase DriftingSynthetic(uint64_t num_transactions,
                                             uint32_t num_items,
                                             uint64_t seed = 1) {
  QuestConfig config;
  config.num_items = num_items;
  config.num_transactions = num_transactions;
  config.avg_transaction_size = num_items / 100.0;
  config.avg_pattern_size = 3.0;
  config.num_patterns = num_items;
  config.corruption_mean = 0.25;
  config.num_seasons = 8;
  config.in_season_boost = 6.0;
  config.seed = seed;
  StatusOr<TransactionDatabase> db = GenerateQuest(config);
  OSSM_CHECK(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

// Runs Apriori and reports wall time; repeated `repeats` times, best-of to
// damp scheduler noise ("the reported figures are based on the average of
// multiple runs" — we report min, the stabler statistic on busy machines).
struct MiningMeasurement {
  double seconds = 0.0;
  MiningResult result;
};

inline MiningMeasurement MeasureApriori(const TransactionDatabase& db,
                                        const AprioriConfig& config,
                                        int repeats = 2) {
  MiningMeasurement measurement;
  measurement.seconds = 1e100;
  for (int r = 0; r < repeats; ++r) {
    WallTimer timer;
    StatusOr<MiningResult> result = MineApriori(db, config);
    double elapsed = timer.ElapsedSeconds();
    OSSM_CHECK(result.ok()) << result.status().ToString();
    if (elapsed < measurement.seconds) {
      measurement.seconds = elapsed;
      measurement.result = std::move(*result);
    }
  }
  return measurement;
}

// Folds the process-wide metrics registry into the harness output. When
// OSSM_METRICS selects a sink, this writes the report right away — next to
// the tables the run printed — instead of waiting for process exit; with
// metrics disabled it is a no-op. Safe to call once per harness: the report
// is emitted at most once per process.
inline void ReportMetrics() { obs::ReportNow(); }

// Every harness funnels its numbers through one of these: construct it at
// the top of Run() (which switches the metrics registry into collect-only
// mode, so pool and miner counters populate even without OSSM_METRICS),
// record the workload knobs as the run goes, timings with AddPhaseSeconds
// and AddValue, and deterministic outputs (pattern counts, C2 fractions,
// ossub evaluations) with AddResult, and call Finish() last. Finish()
// snapshots the registry and writes the canonical RunReport JSON to
// BENCH_<name>.json (or --report=PATH; --report=none skips the file).
// bench_compare and the CI gate hold every result to the committed
// baseline exactly and print the timings.
class BenchReporter {
 public:
  BenchReporter(const std::string& name, const Flags& flags)
      : report_(obs::MakeRunReport("bench." + name)),
        path_(flags.GetString("report", "BENCH_" + name + ".json")) {
    obs::EnableMetricsCollection();
  }

  void SetWorkload(const std::string& key, const std::string& value) {
    report_.SetWorkload(key, value);
  }
  void SetWorkload(const std::string& key, uint64_t value) {
    report_.SetWorkload(key, value);
  }
  void SetWorkload(const std::string& key, double value) {
    report_.SetWorkload(key, value);
  }
  void AddPhaseSeconds(const std::string& name, double seconds) {
    report_.AddPhaseSeconds(name, seconds);
  }
  void AddValue(const std::string& name, double value) {
    report_.AddValue(name, value);
  }
  void AddResult(const std::string& name, double value) {
    report_.AddResult(name, value);
  }
  // Publishes a mining run's output as results: `<prefix>patterns`, the
  // number of frequent itemsets, and `<prefix>patterns.level<k>` per level.
  // Pruning must leave both unchanged, so the gate catches a lost pattern.
  void AddPatternResults(const std::string& prefix,
                         const MiningResult& result) {
    AddResult(prefix + "patterns", static_cast<double>(result.itemsets.size()));
    for (const LevelStats& level : result.stats.levels) {
      AddResult(prefix + "patterns.level" + std::to_string(level.level),
                static_cast<double>(level.frequent));
    }
  }

  // Times a stretch of the harness as a named phase:
  //   { BenchReporter::ScopedPhase phase(reporter, "build"); ... }
  // When hardware counters are available the phase also records its
  // cycles/instructions/IPC/LLC-miss deltas (report values
  // perf_<phase>_cycles etc. plus perf.<phase>.* registry counters) and
  // its page-fault/context-switch deltas (res.<phase>.* counters); with no
  // PMU those keys are simply absent and the phase costs two empty reads.
  class ScopedPhase {
   public:
    ScopedPhase(BenchReporter& reporter, std::string name)
        : reporter_(reporter),
          name_(std::move(name)),
          resources_(obs::perf::SampleResourceUsage()) {}
    ~ScopedPhase() {
      reporter_.AddPhaseSeconds(name_, timer_.ElapsedSeconds());
      obs::perf::PerfReading delta = perf_.Finish();
      if (delta.AnyAvailable()) {
        obs::perf::RecordPhasePerf(name_, delta);
        using obs::perf::PerfCounter;
        if (delta.Has(PerfCounter::kCycles)) {
          reporter_.AddValue(
              "perf_" + name_ + "_cycles",
              static_cast<double>(delta.Value(PerfCounter::kCycles)));
        }
        if (delta.Has(PerfCounter::kInstructions)) {
          reporter_.AddValue(
              "perf_" + name_ + "_instructions",
              static_cast<double>(delta.Value(PerfCounter::kInstructions)));
        }
        if (delta.HasIpc()) {
          reporter_.AddValue("perf_" + name_ + "_ipc", delta.Ipc());
        }
        if (delta.Has(PerfCounter::kLlcMisses)) {
          reporter_.AddValue(
              "perf_" + name_ + "_llc_misses",
              static_cast<double>(delta.Value(PerfCounter::kLlcMisses)));
        }
      }
      obs::perf::RecordPhaseResources(
          name_, obs::perf::ResourceDelta(resources_,
                                          obs::perf::SampleResourceUsage()));
    }
    ScopedPhase(const ScopedPhase&) = delete;
    ScopedPhase& operator=(const ScopedPhase&) = delete;

   private:
    BenchReporter& reporter_;
    std::string name_;
    WallTimer timer_;
    obs::perf::PerfPhase perf_;
    obs::perf::ResourceUsage resources_;
  };

  // Snapshots the metrics registry and writes the report. Returns the exit
  // code for main() so harnesses can `return reporter.Finish();`.
  int Finish() {
    if (path_ == "none") return 0;
    report_.SetWorkload("perf_counters", obs::perf::PerfCountersAvailable()
                                             ? std::string("available")
                                             : std::string("unavailable"));
    obs::perf::RecordProcessResourceMetrics();
    report_.metrics = obs::MetricsRegistry::Global().Snapshot();
    if (Status save = obs::SaveRunReportFile(report_, path_); !save.ok()) {
      std::fprintf(stderr, "error: %s\n", save.ToString().c_str());
      return 1;
    }
    std::printf("\nwrote run report to %s\n", path_.c_str());
    return 0;
  }

 private:
  obs::RunReport report_;
  std::string path_;
};

}  // namespace bench
}  // namespace ossm

#endif  // OSSM_BENCH_BENCH_UTIL_H_

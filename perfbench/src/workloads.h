#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The three workloads. Each has an untimed `Prepare` that writes its inputs
// into the per-run directory from the seed (a separate process, so the
// generators never count towards the measured process's memory), and a
// `Run` that sets up from those files, measures, checks every answer and
// fills a WorkloadReport.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/ossm_builder.h"
#include "datagen/quest_generator.h"
#include "harness.h"
#include "spans.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;  // per-run directory holding the prepared inputs
};

struct WorkloadReport {
  Tally tally;
  std::vector<Metric> end_to_end;         // untraced runs
  std::map<std::string, double> layers;   // traced runs; by metric name
  // Run metadata and derivations printed above the result line.
  std::vector<std::pair<std::string, std::string>> notes;
};

// Fixed input file names inside the run directory.
std::string DataPath(const std::string& dir);
std::string MapPath(const std::string& dir);
std::string StreamPath(const std::string& dir);

// Fig. 4's drifting Quest collection: one pattern per item, mean pattern
// size 3, pattern popularity shifting over 8 seasons with a 6x in-season
// boost, so the Eq. (1) bound has drift to exploit.
ossm::QuestConfig DriftingQuest(uint32_t items, uint64_t transactions,
                                double avg_transaction_size, uint64_t seed);

// Every workload's map: 40 Random-Greedy segments over 100-transaction
// pages.
ossm::OssmBuildOptions MapRecipe(uint64_t seed);

// Fills the six end-to-end metrics of one untraced pass; setup_s is the
// median of the set-up repetitions. `sorted_latency_ms` is the pass's whole
// sample, printed as a percentile ladder in the meta line.
void AddEndToEnd(const std::vector<double>& setup_samples,
                 const LatencySummary& latency,
                 const std::vector<double>& sorted_latency_ms,
                 uint64_t latency_population, const Tally& tally,
                 double ops_per_s, double peak_rss_mb,
                 WorkloadReport* report);

ossm::Status PrepareMine(const RunOptions& options);
ossm::Status RunMine(const RunOptions& options, SpanLog* spans,
                     WorkloadReport* report);

ossm::Status PrepareServe(const RunOptions& options);
ossm::Status RunServe(const RunOptions& options, SpanLog* spans,
                      WorkloadReport* report);

// p50 of a histogram in the process-wide metrics registry; 0 when absent.
double RegistryP50(const std::string& histogram);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

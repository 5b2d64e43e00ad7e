#ifndef OSSM_OBS_REPORT_H_
#define OSSM_OBS_REPORT_H_

// The run-report layer: one canonical, versioned JSON document per
// measurement run, written by every bench harness (BENCH_<name>.json) and
// by `ossm_cli --report=<path>`. A report carries enough context to be
// compared across commits and machines — environment, workload identity,
// per-phase wall-clock, headline result values, and a full metrics-registry
// snapshot — and `CompareReports` classifies the differences between two of
// them as improvement / noise / regression, which is what the
// `bench_compare` tool and the CI perf gate run on.

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace ossm {
namespace obs {

// Bumped whenever a key is renamed, removed, or changes meaning. Adding
// keys is backward compatible and does not bump it. Readers refuse
// documents with a NEWER version than they were built against.
// Version 2 dropped metrics.spans, which repeated every span.* histogram;
// version-1 documents still parse and their "spans" object is ignored.
inline constexpr int kRunReportSchemaVersion = 2;

// Where the numbers came from: enough to judge whether two reports are
// comparable, and to bisect a shift to a commit or a machine change.
struct RunEnvironment {
  std::string git_rev;       // short rev at configure time; "unknown" outside git
  std::string compiler;      // e.g. "gcc 13.2.0"
  std::string build_type;    // "release" (NDEBUG) or "debug"
  std::string os;            // "linux", "darwin", "windows", or "unknown"
  uint32_t hardware_concurrency = 0;
  uint32_t threads = 0;      // OSSM_THREADS if set, else hardware_concurrency
};

// The environment of the calling process, captured now.
RunEnvironment CaptureEnvironment();

struct RunReport {
  int schema_version = kRunReportSchemaVersion;
  std::string name;  // run identity, e.g. "fig4_speedup" or "ossm_cli.mine"
  RunEnvironment environment;
  // Workload identity (dataset, minsup, segmenter, miner, shape flags).
  // A std::map so serialization is key-sorted and therefore stable.
  std::map<std::string, std::string> workload;
  // Per-phase wall-clock seconds, in execution order.
  std::vector<std::pair<std::string, double>> phases;
  // Headline scalar results (speedups, fractions, sweep points), in
  // insertion order.
  std::vector<std::pair<std::string, double>> values;
  MetricsSnapshot metrics;

  void SetWorkload(std::string key, std::string value);
  void SetWorkload(std::string key, uint64_t value);
  void SetWorkload(std::string key, double value);
  // Appends, or accumulates into an existing phase of the same name (a
  // phase run in a loop reports its total).
  void AddPhaseSeconds(std::string phase, double seconds);
  void AddValue(std::string value_name, double value);
};

// A report named `run_name` with the current environment captured. Call
// sites fill workload/phases/values and snapshot metrics before saving.
RunReport MakeRunReport(std::string run_name);

// Serialization. The JSON layout is part of the golden-file contract:
// fixed top-level key order (schema_version, name, environment, workload,
// phases, values, metrics), sorted keys inside environment/workload/metrics,
// insertion order inside phases/values.
void WriteRunReport(const RunReport& report, std::ostream& os);
StatusOr<RunReport> ParseRunReport(std::string_view json_text);
StatusOr<RunReport> LoadRunReportFile(const std::string& path);
Status SaveRunReportFile(const RunReport& report, const std::string& path);

// ---------------------------------------------------------------------------
// Report comparison (the benchmark-regression gate).

enum class MetricVerdict {
  kImprovement,
  kNoise,       // within thresholds, under the absolute floor, or neutral
  kRegression,
  kMissing,     // in the baseline, absent from the candidate
  kNew,         // in the candidate only; informational
};
std::string_view MetricVerdictName(MetricVerdict verdict);

// Which way a metric is allowed to move. Times (phases, span totals) are
// lower-is-better; counters default to lower-is-better ("candidates
// counted", "bytes read") with name-based exceptions ("pruned" counters are
// higher-is-better and "pool." scheduling counters are neutral); free-form
// values are classified by name ("seconds"/"_us" lower, "speedup"/
// "throughput" higher, otherwise neutral). Neutral metrics never gate.
enum class MetricDirection { kLowerIsBetter, kHigherIsBetter, kNeutral };
MetricDirection DirectionForCounter(std::string_view counter_name);
MetricDirection DirectionForValue(std::string_view value_name);

// True for hardware-counter and resource-accounting metrics (perf.* / res.*
// registry counters, perf_* report values, *_ipc, *llc_miss*). These are
// environment-dependent: they disappear entirely when a run lands on a
// machine that denies perf_event_open, so a baseline-present/candidate-
// absent perf metric is classified as noise ("perf counters unavailable"),
// never as MISSING — committed baselines made on PMU machines must not
// fail --fail-on-missing gates in locked-down CI containers.
bool IsPerfMetric(std::string_view metric_name);

struct CompareOptions {
  // Relative thresholds: |candidate - baseline| / baseline beyond which a
  // time / counter / value difference is not noise.
  double time_rel_threshold = 0.10;
  double count_rel_threshold = 0.02;
  double value_rel_threshold = 0.10;
  // Min-absolute-time floor: phases where both runs are faster than this
  // are classified as noise regardless of ratio — micro-phases jitter by
  // integer factors without meaning anything.
  double time_floor_seconds = 0.050;
  // Also compare per-span total_us from the metrics snapshot (off by
  // default: phases already cover the intended comparison axis and span
  // totals double-count them).
  bool include_span_totals = false;
};

struct MetricComparison {
  std::string metric;  // "phase.<name>", "counter.<name>", "value.<name>"
  double baseline = 0.0;
  double candidate = 0.0;
  double rel_delta = 0.0;  // (candidate - baseline) / |baseline|
  MetricVerdict verdict = MetricVerdict::kNoise;
  std::string detail;  // human-readable reason for the verdict
};

struct ReportComparison {
  std::vector<MetricComparison> rows;
  // Non-gating observations: schema/workload/thread-count mismatches that
  // make the comparison suspect.
  std::vector<std::string> notes;
  int regressions = 0;
  int improvements = 0;
  int missing = 0;
  // Candidate-only metrics: informational, never gate (a freshly added
  // instrument must not fail against an older committed baseline).
  int new_metrics = 0;

  bool ShouldFail(bool fail_on_missing) const {
    return regressions > 0 || (fail_on_missing && missing > 0);
  }
};

ReportComparison CompareReports(const RunReport& baseline,
                                const RunReport& candidate,
                                const CompareOptions& options);

// Renders the comparison as an aligned table (plus notes and a summary
// line), the same shape the bench harnesses print.
void PrintComparison(const ReportComparison& comparison, std::ostream& os);

}  // namespace obs
}  // namespace ossm

#endif  // OSSM_OBS_REPORT_H_

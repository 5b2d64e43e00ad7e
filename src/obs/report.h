#ifndef OSSM_OBS_REPORT_H_
#define OSSM_OBS_REPORT_H_

// The run-report layer: one canonical, versioned JSON document per
// measurement run, written by every bench harness (BENCH_<name>.json) and
// by `ossm_cli --report=<path>`. A report carries enough context to be
// compared across commits and machines — environment, workload identity,
// per-phase wall-clock, measured values, deterministic results, and a full
// metrics-registry snapshot. `CompareReports` applies one rule to two of
// them: every baseline result must reappear in the candidate unchanged;
// phases and values are measurements, printed with their delta and never
// gated. That rule is what the `bench_compare` tool and the CI gate run.

#include <cstdint>
#include <map>
#include <optional>
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
// Version 3 added "results"; version-1 and -2 documents parse with none.
inline constexpr int kRunReportSchemaVersion = 3;

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
  // Measured scalars (speedups, throughputs, hardware-counter rates), in
  // insertion order. Like phases, they move from run to run.
  std::vector<std::pair<std::string, double>> values;
  // Deterministic outputs (pattern counts, C2 fractions, ossub
  // evaluations, n_min), in insertion order. A result is the same at any
  // OSSM_THREADS, ISA and storage backend, so it is compared exactly.
  std::vector<std::pair<std::string, double>> results;
  MetricsSnapshot metrics;

  void SetWorkload(std::string key, std::string value);
  void SetWorkload(std::string key, uint64_t value);
  void SetWorkload(std::string key, double value);
  // Appends, or accumulates into an existing phase of the same name (a
  // phase run in a loop reports its total).
  void AddPhaseSeconds(std::string phase, double seconds);
  void AddValue(std::string value_name, double value);
  void AddResult(std::string result_name, double value);
};

// A report named `run_name` with the current environment captured. Call
// sites fill workload/phases/values and snapshot metrics before saving.
RunReport MakeRunReport(std::string run_name);

// Serialization. The JSON layout is part of the golden-file contract:
// fixed top-level key order (schema_version, name, environment, workload,
// phases, values, results, metrics), sorted keys inside
// environment/workload/metrics, insertion order inside phases, values and
// results. Phases and values print with %.6g; results print with %.17g,
// which re-parses to the same double (and writes integers below 1e17 in
// full), so an exact comparison survives the file.
void WriteRunReport(const RunReport& report, std::ostream& os);
StatusOr<RunReport> ParseRunReport(std::string_view json_text);
StatusOr<RunReport> LoadRunReportFile(const std::string& path);
Status SaveRunReportFile(const RunReport& report, const std::string& path);

// ---------------------------------------------------------------------------
// Report comparison (the regression gate).

enum class MetricVerdict {
  kSame,      // a result equal in both reports
  kDiffers,   // a result whose candidate value differs: fails the gate
  kMissing,   // a baseline result absent from the candidate: fails the gate
  kNew,       // in the candidate only: informational
  kMeasured,  // a phase or value: printed with its delta, never gates
};

struct MetricComparison {
  std::string metric;  // "result.<name>", "phase.<name>" or "value.<name>"
  std::optional<double> baseline;   // empty for kNew
  std::optional<double> candidate;  // empty when the candidate lacks it
  MetricVerdict verdict = MetricVerdict::kMeasured;
};

struct ReportComparison {
  std::vector<MetricComparison> rows;
  // Non-gating observations: name, workload and thread-count mismatches
  // that make the comparison suspect.
  std::vector<std::string> notes;
  int differing = 0;
  int missing = 0;
  // Candidate-only results: informational, never gate (a freshly added
  // result must not fail against an older committed baseline).
  int new_results = 0;

  bool ShouldFail() const { return differing > 0 || missing > 0; }
};

// Results gate exactly; phases and values are reported; registry counters
// and span histograms are not compared.
ReportComparison CompareReports(const RunReport& baseline,
                                const RunReport& candidate);

// Renders the comparison as an aligned table (plus notes and a summary
// line), the same shape the bench harnesses print.
void PrintComparison(const ReportComparison& comparison, std::ostream& os);

}  // namespace obs
}  // namespace ossm

#endif  // OSSM_OBS_REPORT_H_

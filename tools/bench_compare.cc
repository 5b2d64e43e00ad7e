// bench_compare — the benchmark-regression gate.
//
//   bench_compare <baseline.json> <candidate.json> [--flags]
//
// Both inputs are RunReport JSON documents (BENCH_<name>.json from the
// bench harnesses, or `ossm_cli --report=` output). Every phase, headline
// value, and counter present in the baseline is classified as improvement /
// noise / regression against the candidate using relative thresholds plus a
// min-absolute-time floor, the verdicts are printed as a table, and the
// exit status is the gate: 0 when clean, 1 on any regression (or, with
// --fail-on-missing, on metrics that vanished), 2 on usage/parse errors.
//
// Flags:
//   --time-rel=0.10        relative wall-clock threshold (fraction)
//   --time-floor-ms=50     phases faster than this in BOTH runs are noise
//   --count-rel=0.02       relative counter threshold (fraction)
//   --value-rel=0.10       relative headline-value threshold (fraction)
//   --spans                also compare per-span total_us
//   --fail-on-missing      metrics present only in the baseline fail the gate
//   --report-only          print the table but always exit 0 (except on
//                          parse errors); for cross-machine comparisons
//                          where wall-clock gating would be noise

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "obs/report.h"

namespace ossm {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: bench_compare <baseline.json> <candidate.json>\n"
      "       [--time-rel=F] [--time-floor-ms=F] [--count-rel=F]\n"
      "       [--value-rel=F] [--spans] [--fail-on-missing] "
      "[--report-only]\n");
  return 2;
}

// Parses a threshold flag's value in full; false on trailing text, an
// empty value or overflow (--value-rel=abc must not gate every value at 0%).
bool ParseDouble(const std::string& text, double* value) {
  char* end = nullptr;
  errno = 0;
  *value = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0' && errno != ERANGE;
}

int Main(int argc, char** argv) {
  std::string baseline_path;
  std::string candidate_path;
  obs::CompareOptions options;
  bool fail_on_missing = false;
  bool report_only = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (baseline_path.empty()) {
        baseline_path = arg;
      } else if (candidate_path.empty()) {
        candidate_path = arg;
      } else {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        return Usage();
      }
      continue;
    }
    size_t eq = arg.find('=');
    std::string key = arg.substr(2, eq == std::string::npos
                                        ? std::string::npos
                                        : eq - 2);
    std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    const bool numeric = key == "time-rel" || key == "time-floor-ms" ||
                         key == "count-rel" || key == "value-rel";
    double number = 0.0;
    if (numeric && !ParseDouble(value, &number)) {
      std::fprintf(stderr, "error: --%s=%s is not a number\n", key.c_str(),
                   value.c_str());
      return 2;
    }
    if (key == "time-rel") {
      options.time_rel_threshold = number;
    } else if (key == "time-floor-ms") {
      options.time_floor_seconds = number / 1e3;
    } else if (key == "count-rel") {
      options.count_rel_threshold = number;
    } else if (key == "value-rel") {
      options.value_rel_threshold = number;
    } else if (key == "spans") {
      options.include_span_totals = true;
    } else if (key == "fail-on-missing") {
      fail_on_missing = true;
    } else if (key == "report-only") {
      report_only = true;
    } else {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      return Usage();
    }
  }
  if (baseline_path.empty() || candidate_path.empty()) return Usage();

  StatusOr<obs::RunReport> baseline = obs::LoadRunReportFile(baseline_path);
  if (!baseline.ok()) {
    std::fprintf(stderr, "error: %s\n", baseline.status().ToString().c_str());
    return 2;
  }
  StatusOr<obs::RunReport> candidate = obs::LoadRunReportFile(candidate_path);
  if (!candidate.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 candidate.status().ToString().c_str());
    return 2;
  }

  std::printf("baseline:  %s (%s, rev %s)\n", baseline_path.c_str(),
              baseline->name.c_str(), baseline->environment.git_rev.c_str());
  std::printf("candidate: %s (%s, rev %s)\n\n", candidate_path.c_str(),
              candidate->name.c_str(), candidate->environment.git_rev.c_str());

  obs::ReportComparison comparison =
      obs::CompareReports(*baseline, *candidate, options);
  obs::PrintComparison(comparison, std::cout);

  if (comparison.new_metrics > 0) {
    std::fprintf(stderr,
                 "warning: %d metric(s) present in the candidate but absent "
                 "from the baseline were skipped, not gated; regenerate the "
                 "baseline (tools/make_baselines.sh) to cover them\n",
                 comparison.new_metrics);
  }

  if (report_only) {
    if (comparison.ShouldFail(fail_on_missing)) {
      std::printf("(--report-only: regressions reported, gate not applied)\n");
    }
    return 0;
  }
  return comparison.ShouldFail(fail_on_missing) ? 1 : 0;
}

}  // namespace
}  // namespace ossm

int main(int argc, char** argv) { return ossm::Main(argc, argv); }

// bench_compare — the regression gate.
//
//   bench_compare <baseline.json> <candidate.json>
//
// Both inputs are RunReport JSON documents (BENCH_<name>.json from the
// bench harnesses, or `ossm_cli --report=` output). One rule decides the
// exit status: every result in the baseline must be in the candidate with
// exactly the same value. Phases and values are measurements; they are
// printed with their delta and never gate. Registry counters and span
// histograms are not compared. Exit 0 when every result matches, 1 when a
// result differs or is missing, 2 on usage or parse errors. To read a
// comparison without gating, ignore the exit status.

#include <cstdio>
#include <iostream>
#include <string>

#include "obs/report.h"

namespace ossm {
namespace {

int Main(int argc, char** argv) {
  if (argc != 3 || std::string(argv[1]).starts_with("--") ||
      std::string(argv[2]).starts_with("--")) {
    std::fprintf(stderr,
                 "usage: bench_compare <baseline.json> <candidate.json>\n");
    return 2;
  }
  const std::string baseline_path = argv[1];
  const std::string candidate_path = argv[2];

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
      obs::CompareReports(*baseline, *candidate);
  obs::PrintComparison(comparison, std::cout);

  if (comparison.new_results > 0) {
    std::fprintf(stderr,
                 "warning: %d result(s) present in the candidate but absent "
                 "from the baseline were not gated; regenerate the "
                 "baselines (tools/make_baselines.sh) to cover them\n",
                 comparison.new_results);
  }
  return comparison.ShouldFail() ? 1 : 0;
}

}  // namespace
}  // namespace ossm

int main(int argc, char** argv) { return ossm::Main(argc, argv); }

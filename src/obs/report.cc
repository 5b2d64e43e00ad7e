#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/json.h"
#include "common/table_printer.h"
#include "obs/export.h"

#ifndef OSSM_GIT_REV
#define OSSM_GIT_REV "unknown"
#endif

namespace ossm {
namespace obs {

namespace {

constexpr std::string_view kSpanPrefix = "span.";

// %.6g everywhere a double lands in JSON: enough for microsecond-level
// wall-clock and stable under a parse/serialize round trip (6 significant
// digits re-print to the same string).
std::string FormatDouble(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

std::string CompilerString() {
#if defined(__clang__)
  return std::string("clang ") + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return std::string("gcc ") + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

std::string OsString() {
#if defined(__linux__)
  return "linux";
#elif defined(__APPLE__)
  return "darwin";
#elif defined(_WIN32)
  return "windows";
#else
  return "unknown";
#endif
}

}  // namespace

RunEnvironment CaptureEnvironment() {
  RunEnvironment env;
  env.git_rev = OSSM_GIT_REV;
  env.compiler = CompilerString();
#ifdef NDEBUG
  env.build_type = "release";
#else
  env.build_type = "debug";
#endif
  env.os = OsString();
  uint32_t hw = std::thread::hardware_concurrency();
  env.hardware_concurrency = hw == 0 ? 1 : hw;
  env.threads = env.hardware_concurrency;
  // Mirrors parallel::DefaultThreadCount() without depending on the pool
  // (the pool depends on obs for its own instrumentation).
  if (const char* raw = std::getenv("OSSM_THREADS")) {
    char* end = nullptr;
    unsigned long parsed = std::strtoul(raw, &end, 10);
    if (end != raw && parsed > 0) env.threads = static_cast<uint32_t>(parsed);
  }
  return env;
}

void RunReport::SetWorkload(std::string key, std::string value) {
  workload[std::move(key)] = std::move(value);
}

void RunReport::SetWorkload(std::string key, uint64_t value) {
  workload[std::move(key)] = std::to_string(value);
}

void RunReport::SetWorkload(std::string key, double value) {
  workload[std::move(key)] = FormatDouble(value);
}

void RunReport::AddPhaseSeconds(std::string phase, double seconds) {
  for (auto& [name, total] : phases) {
    if (name == phase) {
      total += seconds;
      return;
    }
  }
  phases.emplace_back(std::move(phase), seconds);
}

void RunReport::AddValue(std::string value_name, double value) {
  values.emplace_back(std::move(value_name), value);
}

RunReport MakeRunReport(std::string run_name) {
  RunReport report;
  report.name = std::move(run_name);
  report.environment = CaptureEnvironment();
  return report;
}

void WriteRunReport(const RunReport& report, std::ostream& os) {
  os << "{\n  \"schema_version\": " << report.schema_version << ",\n"
     << "  \"name\": \"" << JsonEscape(report.name) << "\",\n"
     << "  \"environment\": {\n"
     << "    \"build_type\": \"" << JsonEscape(report.environment.build_type)
     << "\",\n"
     << "    \"compiler\": \"" << JsonEscape(report.environment.compiler)
     << "\",\n"
     << "    \"git_rev\": \"" << JsonEscape(report.environment.git_rev)
     << "\",\n"
     << "    \"hardware_concurrency\": "
     << report.environment.hardware_concurrency << ",\n"
     << "    \"os\": \"" << JsonEscape(report.environment.os) << "\",\n"
     << "    \"threads\": " << report.environment.threads << "\n  },\n";

  os << "  \"workload\": {";
  bool first = true;
  for (const auto& [key, value] : report.workload) {
    os << (first ? "\n" : ",\n") << "    \"" << JsonEscape(key) << "\": \""
       << JsonEscape(value) << "\"";
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";

  os << "  \"phases\": {";
  first = true;
  for (const auto& [name, seconds] : report.phases) {
    os << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name)
       << "\": " << FormatDouble(seconds);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";

  os << "  \"values\": {";
  first = true;
  for (const auto& [name, value] : report.values) {
    os << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name)
       << "\": " << FormatDouble(value);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";

  os << "  \"metrics\": ";
  WriteMetricsJsonObject(report.metrics, os, 2);
  os << "\n}\n";
}

namespace {

Status MalformedField(std::string_view field, std::string_view why) {
  return Status::Corruption("run report: field \"" + std::string(field) +
                            "\" " + std::string(why));
}

StatusOr<std::vector<std::pair<std::string, double>>> ReadNumberMap(
    const json::Value& root, std::string_view field) {
  std::vector<std::pair<std::string, double>> out;
  const json::Value* node = root.Find(field);
  if (node == nullptr) return out;  // optional: older/minimal reports
  if (!node->is_object()) return MalformedField(field, "is not an object");
  for (const auto& [key, value] : node->object()) {
    if (!value.is_number()) {
      return MalformedField(field, "member \"" + key + "\" is not a number");
    }
    out.emplace_back(key, value.number_value());
  }
  return out;
}

}  // namespace

StatusOr<RunReport> ParseRunReport(std::string_view json_text) {
  StatusOr<json::Value> parsed = json::Parse(json_text);
  if (!parsed.ok()) return parsed.status();
  const json::Value& root = *parsed;
  if (!root.is_object()) {
    return Status::Corruption("run report: document is not a JSON object");
  }

  RunReport report;
  const json::Value* version = root.Find("schema_version");
  if (version == nullptr || !version->is_number()) {
    return MalformedField("schema_version", "is missing or not a number");
  }
  report.schema_version = static_cast<int>(version->number_value());
  if (report.schema_version > kRunReportSchemaVersion) {
    return Status::Corruption(
        "run report: schema_version " +
        std::to_string(report.schema_version) +
        " is newer than this binary understands (" +
        std::to_string(kRunReportSchemaVersion) + ")");
  }
  if (report.schema_version < 1) {
    return MalformedField("schema_version", "must be >= 1");
  }

  if (const json::Value* name = root.Find("name")) {
    report.name = name->StringOr("");
  }

  if (const json::Value* env = root.Find("environment")) {
    if (!env->is_object()) {
      return MalformedField("environment", "is not an object");
    }
    RunEnvironment& e = report.environment;
    if (const json::Value* v = env->Find("git_rev")) e.git_rev = v->StringOr("");
    if (const json::Value* v = env->Find("compiler")) {
      e.compiler = v->StringOr("");
    }
    if (const json::Value* v = env->Find("build_type")) {
      e.build_type = v->StringOr("");
    }
    if (const json::Value* v = env->Find("os")) e.os = v->StringOr("");
    if (const json::Value* v = env->Find("hardware_concurrency")) {
      e.hardware_concurrency = static_cast<uint32_t>(v->NumberOr(0));
    }
    if (const json::Value* v = env->Find("threads")) {
      e.threads = static_cast<uint32_t>(v->NumberOr(0));
    }
  }

  if (const json::Value* workload = root.Find("workload")) {
    if (!workload->is_object()) {
      return MalformedField("workload", "is not an object");
    }
    for (const auto& [key, value] : workload->object()) {
      if (!value.is_string()) {
        return MalformedField("workload",
                              "member \"" + key + "\" is not a string");
      }
      report.workload[key] = value.string_value();
    }
  }

  StatusOr<std::vector<std::pair<std::string, double>>> phases =
      ReadNumberMap(root, "phases");
  if (!phases.ok()) return phases.status();
  report.phases = std::move(*phases);

  StatusOr<std::vector<std::pair<std::string, double>>> values =
      ReadNumberMap(root, "values");
  if (!values.ok()) return values.status();
  report.values = std::move(*values);

  if (const json::Value* metrics = root.Find("metrics")) {
    if (!metrics->is_object()) {
      return MalformedField("metrics", "is not an object");
    }
    if (const json::Value* counters = metrics->Find("counters")) {
      if (!counters->is_object()) {
        return MalformedField("metrics.counters", "is not an object");
      }
      for (const auto& [key, value] : counters->object()) {
        report.metrics.counters.emplace_back(
            key, static_cast<uint64_t>(value.NumberOr(0)));
      }
    }
    if (const json::Value* gauges = metrics->Find("gauges")) {
      if (!gauges->is_object()) {
        return MalformedField("metrics.gauges", "is not an object");
      }
      for (const auto& [key, value] : gauges->object()) {
        report.metrics.gauges.emplace_back(
            key, static_cast<int64_t>(value.NumberOr(0)));
      }
    }
    if (const json::Value* histograms = metrics->Find("histograms")) {
      if (!histograms->is_object()) {
        return MalformedField("metrics.histograms", "is not an object");
      }
      for (const auto& [key, value] : histograms->object()) {
        if (!value.is_object()) {
          return MalformedField("metrics.histograms",
                                "member \"" + key + "\" is not an object");
        }
        HistogramSnapshot h;
        if (const json::Value* v = value.Find("count")) {
          h.count = static_cast<uint64_t>(v->NumberOr(0));
        }
        if (const json::Value* v = value.Find("sum")) {
          h.sum = static_cast<uint64_t>(v->NumberOr(0));
        }
        if (const json::Value* v = value.Find("min")) {
          h.min = static_cast<uint64_t>(v->NumberOr(0));
        }
        if (const json::Value* v = value.Find("max")) {
          h.max = static_cast<uint64_t>(v->NumberOr(0));
        }
        if (const json::Value* v = value.Find("p50")) h.p50 = v->NumberOr(0);
        if (const json::Value* v = value.Find("p95")) h.p95 = v->NumberOr(0);
        if (const json::Value* v = value.Find("p99")) h.p99 = v->NumberOr(0);
        report.metrics.histograms.emplace_back(key, h);
      }
    }
    // Version-1 "spans" repeats the span.* histograms; skipped.
  }
  return report;
}

StatusOr<RunReport> LoadRunReportFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream contents;
  contents << in.rdbuf();
  StatusOr<RunReport> report = ParseRunReport(contents.str());
  if (!report.ok()) {
    return Status::Corruption(path + ": " + report.status().ToString());
  }
  return report;
}

Status SaveRunReportFile(const RunReport& report, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  WriteRunReport(report, out);
  out.flush();
  if (!out) return Status::IOError("failed writing " + path);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Comparison.

std::string_view MetricVerdictName(MetricVerdict verdict) {
  switch (verdict) {
    case MetricVerdict::kImprovement: return "improvement";
    case MetricVerdict::kNoise: return "noise";
    case MetricVerdict::kRegression: return "REGRESSION";
    case MetricVerdict::kMissing: return "MISSING";
    case MetricVerdict::kNew: return "new";
  }
  return "unknown";
}

namespace {

bool Contains(std::string_view name, std::string_view needle) {
  return name.find(needle) != std::string_view::npos;
}

}  // namespace

bool IsPerfMetric(std::string_view metric_name) {
  return metric_name.starts_with("perf.") ||
         metric_name.starts_with("perf_") ||
         metric_name.starts_with("res.") ||
         Contains(metric_name, "_ipc") || Contains(metric_name, "llc_miss");
}

MetricDirection DirectionForCounter(std::string_view counter_name) {
  // Scheduling-dependent pool counters move with machine load, not with the
  // code under test.
  if (counter_name.starts_with("pool.")) return MetricDirection::kNeutral;
  // Raw hardware-counter and resource accumulations (perf.<phase>.cycles,
  // res.<phase>.minor_faults, ...) scale with how long the phase ran on
  // this machine today; gating happens on the derived report values (ipc,
  // llc_miss_per_elem) instead.
  if (counter_name.starts_with("perf.") || counter_name.starts_with("res.")) {
    return MetricDirection::kNeutral;
  }
  // Storage counters measure IO work — commits, msync calls, bytes synced,
  // torn tails repaired, WAL pages replayed; fewer is better. Mapping and
  // residency gauges only say where bytes live: an mmap run legitimately
  // maps more while keeping less resident, so they never gate.
  if (counter_name.starts_with("storage.")) {
    if (Contains(counter_name, "resident") ||
        Contains(counter_name, "mapped") ||
        Contains(counter_name, "live_stores")) {
      return MetricDirection::kNeutral;
    }
    return MetricDirection::kLowerIsBetter;
  }
  // Page faults (major or minor) outside the neutral res.* namespace are
  // IO stalls.
  if (Contains(counter_name, "fault")) {
    return MetricDirection::kLowerIsBetter;
  }
  if (Contains(counter_name, "pruned") ||
      Contains(counter_name, "cache_hits") ||
      Contains(counter_name, "abandoned") ||
      Contains(counter_name, "eliminated") ||
      Contains(counter_name, "derived")) {
    // Abandoned joins are merges cut short — avoided work, like prunes;
    // eliminated candidates and derived supports are counting passes never
    // paid for.
    return MetricDirection::kHigherIsBetter;
  }
  // The typical instruments — candidates counted, bytes/pages read, bound
  // evaluations — all measure work.
  return MetricDirection::kLowerIsBetter;
}

MetricDirection DirectionForValue(std::string_view value_name) {
  // Latency percentiles and queueing metrics measure waiting; they win over
  // any other token the name carries (e.g. the cache tier's p99 must not
  // inherit the cache-hit higher-is-better rule).
  if (Contains(value_name, "_p50_us") || Contains(value_name, "_p95_us") ||
      Contains(value_name, "_p99_us") || Contains(value_name, "queue_wait") ||
      Contains(value_name, "queue_depth")) {
    return MetricDirection::kLowerIsBetter;
  }
  // Mapping and residency sizes are descriptive, not work: heap-vs-mmap
  // runs differ here by design.
  if (Contains(value_name, "resident") || Contains(value_name, "mapped")) {
    return MetricDirection::kNeutral;
  }
  // Hardware-counter rates: misses and faults are waste (checked before
  // the higher-is-better block so llc_miss_per_elem never reads as a
  // throughput); IPC is useful work per cycle.
  if (Contains(value_name, "miss") || Contains(value_name, "fault")) {
    return MetricDirection::kLowerIsBetter;
  }
  if (Contains(value_name, "speedup") || Contains(value_name, "throughput") ||
      Contains(value_name, "per_sec") || Contains(value_name, "pruned") ||
      Contains(value_name, "qps") || Contains(value_name, "hit_ratio") ||
      Contains(value_name, "gib_per_s") ||
      Contains(value_name, "elems_per_s") ||
      Contains(value_name, "_ipc") || Contains(value_name, "eliminated") ||
      Contains(value_name, "derived")) {
    return MetricDirection::kHigherIsBetter;
  }
  if (Contains(value_name, "seconds") || Contains(value_name, "_us") ||
      Contains(value_name, "_ms") || Contains(value_name, "time")) {
    return MetricDirection::kLowerIsBetter;
  }
  return MetricDirection::kNeutral;
}

namespace {

std::string FormatPercent(double rel) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%+.1f%%", rel * 100.0);
  return buffer;
}

MetricComparison ClassifyTime(std::string metric, double baseline,
                              double candidate,
                              const CompareOptions& options) {
  MetricComparison row;
  row.metric = std::move(metric);
  row.baseline = baseline;
  row.candidate = candidate;
  double base = std::max(std::abs(baseline), 1e-12);
  row.rel_delta = (candidate - baseline) / base;
  if (std::max(baseline, candidate) < options.time_floor_seconds) {
    row.verdict = MetricVerdict::kNoise;
    row.detail = "under " + FormatDouble(options.time_floor_seconds) +
                 "s floor";
    return row;
  }
  if (row.rel_delta > options.time_rel_threshold) {
    row.verdict = MetricVerdict::kRegression;
    row.detail = FormatPercent(row.rel_delta) + " slower";
  } else if (row.rel_delta < -options.time_rel_threshold) {
    row.verdict = MetricVerdict::kImprovement;
    row.detail = FormatPercent(row.rel_delta) + " faster";
  } else {
    row.verdict = MetricVerdict::kNoise;
    row.detail = "within " + FormatPercent(options.time_rel_threshold);
  }
  return row;
}

MetricComparison ClassifyDirected(std::string metric, double baseline,
                                  double candidate, double rel_threshold,
                                  MetricDirection direction) {
  MetricComparison row;
  row.metric = std::move(metric);
  row.baseline = baseline;
  row.candidate = candidate;
  // Relative to the baseline's own magnitude: ratio-scale metrics (IPC,
  // misses per element, hit ratios) live well below 1.0, and a 1.0 floor
  // would mute even a 5x swing in them into noise. The floor only guards
  // a zero baseline.
  double base = std::abs(baseline) > 0.0 ? std::abs(baseline) : 1.0;
  row.rel_delta = (candidate - baseline) / base;
  if (baseline == candidate) {
    row.verdict = MetricVerdict::kNoise;
    row.detail = "identical";
    return row;
  }
  if (direction == MetricDirection::kNeutral ||
      std::abs(row.rel_delta) <= rel_threshold) {
    row.verdict = MetricVerdict::kNoise;
    row.detail = direction == MetricDirection::kNeutral
                     ? "neutral metric, " + FormatPercent(row.rel_delta)
                     : "within " + FormatPercent(rel_threshold);
    return row;
  }
  bool went_up = row.rel_delta > 0;
  bool worse = direction == MetricDirection::kLowerIsBetter ? went_up
                                                            : !went_up;
  row.verdict = worse ? MetricVerdict::kRegression
                      : MetricVerdict::kImprovement;
  row.detail = FormatPercent(row.rel_delta) +
               (worse ? " in the wrong direction" : " in the right direction");
  return row;
}

const double* FindMetric(
    const std::vector<std::pair<std::string, double>>& entries,
    std::string_view name) {
  for (const auto& [key, value] : entries) {
    if (key == name) return &value;
  }
  return nullptr;
}

}  // namespace

ReportComparison CompareReports(const RunReport& baseline,
                                const RunReport& candidate,
                                const CompareOptions& options) {
  ReportComparison comparison;

  if (baseline.name != candidate.name) {
    comparison.notes.push_back("run names differ: baseline \"" +
                               baseline.name + "\" vs candidate \"" +
                               candidate.name + "\"");
  }
  if (baseline.environment.threads != candidate.environment.threads) {
    comparison.notes.push_back(
        "thread counts differ: baseline " +
        std::to_string(baseline.environment.threads) + " vs candidate " +
        std::to_string(candidate.environment.threads));
  }
  for (const auto& [key, value] : baseline.workload) {
    auto it = candidate.workload.find(key);
    if (it == candidate.workload.end()) {
      comparison.notes.push_back("workload key \"" + key +
                                 "\" absent from the candidate");
    } else if (it->second != value) {
      comparison.notes.push_back("workload \"" + key + "\" differs: \"" +
                                 value + "\" vs \"" + it->second + "\"");
    }
  }

  auto add_row = [&comparison](MetricComparison row) {
    switch (row.verdict) {
      case MetricVerdict::kRegression: ++comparison.regressions; break;
      case MetricVerdict::kImprovement: ++comparison.improvements; break;
      case MetricVerdict::kMissing: ++comparison.missing; break;
      case MetricVerdict::kNew: ++comparison.new_metrics; break;
      default: break;
    }
    comparison.rows.push_back(std::move(row));
  };
  // Perf-counter metrics vanish whenever the candidate ran somewhere the
  // PMU is denied (most CI containers); that is the documented degraded
  // mode, not a regression, so those rows never count as missing even
  // under --fail-on-missing.
  auto missing_row = [](std::string metric, std::string_view raw_name,
                        double base) {
    MetricComparison row;
    row.metric = std::move(metric);
    row.baseline = base;
    if (IsPerfMetric(raw_name)) {
      row.verdict = MetricVerdict::kNoise;
      row.detail = "perf counters unavailable in the candidate";
    } else {
      row.verdict = MetricVerdict::kMissing;
      row.detail = "absent from the candidate";
    }
    return row;
  };
  auto new_row = [](std::string metric, double cand) {
    MetricComparison row;
    row.metric = std::move(metric);
    row.candidate = cand;
    row.verdict = MetricVerdict::kNew;
    row.detail = "absent from the baseline";
    return row;
  };

  // Phases: the primary wall-clock axis.
  for (const auto& [name, seconds] : baseline.phases) {
    const double* other = FindMetric(candidate.phases, name);
    if (other == nullptr) {
      add_row(missing_row("phase." + name, name, seconds));
    } else {
      add_row(ClassifyTime("phase." + name, seconds, *other, options));
    }
  }
  for (const auto& [name, seconds] : candidate.phases) {
    if (FindMetric(baseline.phases, name) == nullptr) {
      add_row(new_row("phase." + name, seconds));
    }
  }

  // Headline values.
  for (const auto& [name, value] : baseline.values) {
    const double* other = FindMetric(candidate.values, name);
    if (other == nullptr) {
      add_row(missing_row("value." + name, name, value));
    } else {
      add_row(ClassifyDirected("value." + name, value, *other,
                               options.value_rel_threshold,
                               DirectionForValue(name)));
    }
  }
  for (const auto& [name, value] : candidate.values) {
    if (FindMetric(baseline.values, name) == nullptr) {
      add_row(new_row("value." + name, value));
    }
  }

  // Counters: the deterministic cross-run axis (candidate/prune counts).
  auto find_counter = [](const MetricsSnapshot& snapshot,
                         std::string_view name) -> const uint64_t* {
    for (const auto& [key, value] : snapshot.counters) {
      if (key == name) return &value;
    }
    return nullptr;
  };
  for (const auto& [name, value] : baseline.metrics.counters) {
    const uint64_t* other = find_counter(candidate.metrics, name);
    if (other == nullptr) {
      add_row(missing_row("counter." + name, name,
                          static_cast<double>(value)));
    } else {
      add_row(ClassifyDirected("counter." + name, static_cast<double>(value),
                               static_cast<double>(*other),
                               options.count_rel_threshold,
                               DirectionForCounter(name)));
    }
  }
  for (const auto& [name, value] : candidate.metrics.counters) {
    if (find_counter(baseline.metrics, name) == nullptr) {
      add_row(new_row("counter." + name, static_cast<double>(value)));
    }
  }

  if (options.include_span_totals) {
    auto find_histogram =
        [](const MetricsSnapshot& snapshot,
           std::string_view name) -> const HistogramSnapshot* {
      for (const auto& [key, value] : snapshot.histograms) {
        if (key == name) return &value;
      }
      return nullptr;
    };
    for (const auto& [name, h] : baseline.metrics.histograms) {
      if (!name.starts_with(kSpanPrefix)) continue;
      std::string metric = name + ".total_us";
      const HistogramSnapshot* other = find_histogram(candidate.metrics, name);
      if (other == nullptr) {
        add_row(missing_row(std::move(metric), name,
                            static_cast<double>(h.sum)));
      } else {
        add_row(ClassifyTime(std::move(metric),
                             static_cast<double>(h.sum) * 1e-6,
                             static_cast<double>(other->sum) * 1e-6, options));
      }
    }
  }

  return comparison;
}

void PrintComparison(const ReportComparison& comparison, std::ostream& os) {
  for (const std::string& note : comparison.notes) {
    os << "note: " << note << "\n";
  }
  if (!comparison.notes.empty()) os << "\n";

  TablePrinter table(
      {"metric", "baseline", "candidate", "delta", "verdict", "detail"});
  for (const MetricComparison& row : comparison.rows) {
    bool has_both = row.verdict != MetricVerdict::kMissing &&
                    row.verdict != MetricVerdict::kNew;
    table.AddRow({row.metric,
                  row.verdict == MetricVerdict::kNew ? "-"
                                                     : FormatDouble(row.baseline),
                  row.verdict == MetricVerdict::kMissing
                      ? "-"
                      : FormatDouble(row.candidate),
                  has_both ? FormatPercent(row.rel_delta) : "-",
                  std::string(MetricVerdictName(row.verdict)), row.detail});
  }
  table.Print(os);
  os << "\n"
     << comparison.rows.size() << " metrics compared: "
     << comparison.regressions << " regressions, " << comparison.improvements
     << " improvements, " << comparison.missing << " missing";
  if (comparison.new_metrics > 0) {
    os << ", " << comparison.new_metrics << " new (not gated)";
  }
  os << "\n";
}

}  // namespace obs
}  // namespace ossm

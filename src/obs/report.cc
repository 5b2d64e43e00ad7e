#include "obs/report.h"

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

// %.6g for measurements: enough for microsecond-level wall-clock and
// stable under a parse/serialize round trip (6 significant digits re-print
// to the same string).
std::string FormatDouble(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

// %.17g for results: 17 significant digits re-parse to the same double, so
// the exact comparison sees what the run produced.
std::string FormatExact(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
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

void RunReport::AddResult(std::string result_name, double value) {
  results.emplace_back(std::move(result_name), value);
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

  auto write_numbers = [&os](std::string_view section, const auto& entries,
                             std::string (*format)(double)) {
    os << "  \"" << section << "\": {";
    const char* separator = "\n";
    for (const auto& [name, value] : entries) {
      os << separator << "    \"" << JsonEscape(name)
         << "\": " << format(value);
      separator = ",\n";
    }
    os << (entries.empty() ? "" : "\n  ") << "},\n";
  };
  write_numbers("phases", report.phases, FormatDouble);
  write_numbers("values", report.values, FormatDouble);
  write_numbers("results", report.results, FormatExact);

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

  StatusOr<std::vector<std::pair<std::string, double>>> results =
      ReadNumberMap(root, "results");
  if (!results.ok()) return results.status();
  report.results = std::move(*results);

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

namespace {

std::string_view MetricVerdictName(MetricVerdict verdict) {
  switch (verdict) {
    case MetricVerdict::kSame: return "same";
    case MetricVerdict::kDiffers: return "DIFFERS";
    case MetricVerdict::kMissing: return "MISSING";
    case MetricVerdict::kNew: return "new";
    case MetricVerdict::kMeasured: return "measured";
  }
  return "unknown";
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
                                const RunReport& candidate) {
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

  auto compare = [&comparison](
                     std::string_view section,
                     const std::vector<std::pair<std::string, double>>& base,
                     const std::vector<std::pair<std::string, double>>& cand,
                     bool exact) {
    for (const auto& [name, value] : base) {
      MetricComparison row;
      row.metric = std::string(section) + "." + name;
      row.baseline = value;
      const double* other = FindMetric(cand, name);
      if (other != nullptr) row.candidate = *other;
      if (!exact) {
        row.verdict = MetricVerdict::kMeasured;
      } else if (other == nullptr) {
        row.verdict = MetricVerdict::kMissing;
        ++comparison.missing;
      } else if (*other == value) {
        row.verdict = MetricVerdict::kSame;
      } else {
        row.verdict = MetricVerdict::kDiffers;
        ++comparison.differing;
      }
      comparison.rows.push_back(std::move(row));
    }
    for (const auto& [name, value] : cand) {
      if (FindMetric(base, name) != nullptr) continue;
      MetricComparison row;
      row.metric = std::string(section) + "." + name;
      row.candidate = value;
      row.verdict = MetricVerdict::kNew;
      if (exact) ++comparison.new_results;
      comparison.rows.push_back(std::move(row));
    }
  };
  compare("result", baseline.results, candidate.results, /*exact=*/true);
  compare("phase", baseline.phases, candidate.phases, /*exact=*/false);
  compare("value", baseline.values, candidate.values, /*exact=*/false);
  return comparison;
}

void PrintComparison(const ReportComparison& comparison, std::ostream& os) {
  for (const std::string& note : comparison.notes) {
    os << "note: " << note << "\n";
  }
  if (!comparison.notes.empty()) os << "\n";

  TablePrinter table({"metric", "baseline", "candidate", "delta", "verdict"});
  size_t results = 0;
  size_t measurements = 0;
  for (const MetricComparison& row : comparison.rows) {
    bool is_result = row.metric.starts_with("result.");
    if (!is_result) {
      ++measurements;
    } else if (row.baseline) {
      ++results;
    }
    auto format = [is_result](const std::optional<double>& side) {
      if (!side) return std::string("-");
      return is_result ? FormatExact(*side) : FormatDouble(*side);
    };
    std::string delta = "-";
    if (row.baseline && row.candidate && *row.baseline != 0.0) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%+.1f%%",
                    (*row.candidate - *row.baseline) /
                        std::abs(*row.baseline) * 100.0);
      delta = buffer;
    }
    table.AddRow({row.metric, format(row.baseline), format(row.candidate),
                  delta, std::string(MetricVerdictName(row.verdict))});
  }
  table.Print(os);
  os << "\n"
     << results << " results compared: " << comparison.differing
     << " differ, " << comparison.missing << " missing";
  if (comparison.new_results > 0) {
    os << ", " << comparison.new_results << " new (not gated)";
  }
  os << "; " << measurements << " phases and values reported, not gated\n";
}

}  // namespace obs
}  // namespace ossm

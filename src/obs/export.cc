#include "obs/export.h"

#include <cinttypes>
#include <cstdio>
#include <string>

#include "common/table_printer.h"

namespace ossm {
namespace obs {

namespace {

constexpr std::string_view kSpanPrefix = "span.";

std::string FormatQuantile(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

std::string FormatUint(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
  return buffer;
}

std::string FormatInt(int64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%" PRId64, value);
  return buffer;
}

}  // namespace

std::string JsonEscape(std::string_view text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        escaped += "\\\"";
        break;
      case '\\':
        escaped += "\\\\";
        break;
      case '\n':
        escaped += "\\n";
        break;
      case '\r':
        escaped += "\\r";
        break;
      case '\t':
        escaped += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          escaped += buffer;
        } else {
          escaped += c;
        }
    }
  }
  return escaped;
}

void WriteTextReport(const MetricsSnapshot& snapshot, std::ostream& os) {
  os << "== OSSM metrics report ==\n";

  if (!snapshot.counters.empty()) {
    os << "\ncounters\n";
    TablePrinter table({"name", "value"});
    for (const auto& [name, value] : snapshot.counters) {
      table.AddRow({name, FormatUint(value)});
    }
    table.Print(os);
  }

  if (!snapshot.gauges.empty()) {
    os << "\ngauges\n";
    TablePrinter table({"name", "value"});
    for (const auto& [name, value] : snapshot.gauges) {
      table.AddRow({name, FormatInt(value)});
    }
    table.Print(os);
  }

  bool any_plain = false;
  bool any_span = false;
  for (const auto& [name, histogram] : snapshot.histograms) {
    (name.starts_with(kSpanPrefix) ? any_span : any_plain) = true;
  }

  if (any_plain) {
    os << "\nhistograms\n";
    TablePrinter table({"name", "count", "sum", "min", "p50", "p95", "p99",
                        "max"});
    for (const auto& [name, h] : snapshot.histograms) {
      if (name.starts_with(kSpanPrefix)) continue;
      table.AddRow({name, FormatUint(h.count), FormatUint(h.sum),
                    FormatUint(h.min), FormatQuantile(h.p50),
                    FormatQuantile(h.p95), FormatQuantile(h.p99),
                    FormatUint(h.max)});
    }
    table.Print(os);
  }

  if (any_span) {
    os << "\nspans (durations in us)\n";
    TablePrinter table({"span", "count", "total", "p50", "p95", "p99",
                        "max"});
    for (const auto& [name, h] : snapshot.histograms) {
      if (!name.starts_with(kSpanPrefix)) continue;
      table.AddRow({std::string(name.substr(kSpanPrefix.size())),
                    FormatUint(h.count), FormatUint(h.sum),
                    FormatQuantile(h.p50), FormatQuantile(h.p95),
                    FormatQuantile(h.p99), FormatUint(h.max)});
    }
    table.Print(os);
  }
}

void WriteMetricsJsonObject(const MetricsSnapshot& snapshot, std::ostream& os,
                            int indent) {
  const std::string pad(indent, ' ');
  os << "{\n" << pad << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    os << (first ? "\n" : ",\n") << pad << "    \"" << JsonEscape(name)
       << "\": " << FormatUint(value);
    first = false;
  }
  if (!first) os << "\n" << pad << "  ";
  os << "},\n" << pad << "  \"gauges\": {";

  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    os << (first ? "\n" : ",\n") << pad << "    \"" << JsonEscape(name)
       << "\": " << FormatInt(value);
    first = false;
  }
  if (!first) os << "\n" << pad << "  ";
  os << "},\n" << pad << "  \"histograms\": {";

  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    os << (first ? "\n" : ",\n") << pad << "    \"" << JsonEscape(name)
       << "\": {\"count\": " << FormatUint(h.count)
       << ", \"sum\": " << FormatUint(h.sum)
       << ", \"min\": " << FormatUint(h.min)
       << ", \"max\": " << FormatUint(h.max)
       << ", \"p50\": " << FormatQuantile(h.p50)
       << ", \"p95\": " << FormatQuantile(h.p95)
       << ", \"p99\": " << FormatQuantile(h.p99) << "}";
    first = false;
  }
  if (!first) os << "\n" << pad << "  ";
  os << "}\n" << pad << "}";
}

void WriteJsonReport(const MetricsSnapshot& snapshot, std::ostream& os) {
  WriteMetricsJsonObject(snapshot, os, 0);
  os << "\n";
}

void WriteChromeTrace(std::span<const TraceEvent> events, std::ostream& os) {
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& event : events) {
    os << (first ? "\n" : ",\n");
    first = false;
    if (event.kind == TraceEvent::Kind::kSpan) {
      os << "  {\"name\": \"" << JsonEscape(event.name)
         << "\", \"cat\": \"ossm\", \"ph\": \"X\""
         << ", \"ts\": " << FormatUint(event.start_us)
         << ", \"dur\": " << FormatUint(event.duration_us)
         << ", \"pid\": 1, \"tid\": " << FormatUint(event.thread_id)
         << ", \"args\": {\"depth\": " << event.depth << "}}";
      continue;
    }
    // Flow arrow endpoints. "bp":"e" binds the finish to the enclosing
    // slice, matching how the pool emits the end inside the task's span.
    bool start = event.kind == TraceEvent::Kind::kFlowStart;
    os << "  {\"name\": \"" << JsonEscape(event.name)
       << "\", \"cat\": \"ossm\", \"ph\": \"" << (start ? 's' : 'f') << "\"";
    if (!start) os << ", \"bp\": \"e\"";
    os << ", \"id\": " << FormatUint(event.flow_id)
       << ", \"ts\": " << FormatUint(event.start_us)
       << ", \"pid\": 1, \"tid\": " << FormatUint(event.thread_id) << "}";
  }
  os << (first ? "" : "\n") << "]}\n";
}

}  // namespace obs
}  // namespace ossm

#ifndef OSSM_OBS_EXPORT_H_
#define OSSM_OBS_EXPORT_H_

#include <ostream>
#include <span>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ossm {
namespace obs {

// Human-readable report: counters / gauges / histograms / span aggregates
// as aligned TablePrinter tables (the same renderer the benches use).
void WriteTextReport(const MetricsSnapshot& snapshot, std::ostream& os);

// Machine-readable report:
//   {"counters": {name: value, ...},
//    "gauges": {name: value, ...},
//    "histograms": {name: {"count","sum","min","max","p50","p95","p99"}}}
// A trace span's durations (microseconds) are the "span.<name>" histogram;
// they are written once, there.
void WriteJsonReport(const MetricsSnapshot& snapshot, std::ostream& os);

// Writes the metrics object ({"counters": ..., "gauges": ...,
// "histograms": ...}) without a trailing newline, every line after the
// first prefixed by `indent` spaces. WriteJsonReport is this at indent 0;
// RunReport embeds it nested.
void WriteMetricsJsonObject(const MetricsSnapshot& snapshot, std::ostream& os,
                            int indent);

// Chrome trace-event JSON — load the file in chrome://tracing or Perfetto.
// Span events are emitted as complete ("ph":"X") slices; flow events as
// "ph":"s" / "ph":"f" pairs keyed by flow id, which is what draws the
// fork-join arrows between pool lanes.
void WriteChromeTrace(std::span<const TraceEvent> events, std::ostream& os);

// Escapes a string for embedding in a JSON string literal (quotes excluded).
std::string JsonEscape(std::string_view text);

}  // namespace obs
}  // namespace ossm

#endif  // OSSM_OBS_EXPORT_H_

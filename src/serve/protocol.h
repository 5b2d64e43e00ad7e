#ifndef OSSM_SERVE_PROTOCOL_H_
#define OSSM_SERVE_PROTOCOL_H_

// The line-oriented text protocol of the support server. One request per
// '\n'-terminated line (a trailing '\r' is tolerated, so netcat/telnet on
// any platform works); one response line per request, in request order.
//
//   request  := "Q" SP items        ; itemset-support query
//             | "INFO"              ; served collection + threshold
//             | "STATS"             ; engine/batcher tallies
//             | "METRICS"           ; Prometheus text exposition
//             | "SLOWLOG" [SP uint] ; newest slow queries (default 16)
//             | "PROFILE" [SP uint] ; sample CPU stacks for [ms] (default
//                                   ; 200, capped by the server), answer
//                                   ; folded flamegraph lines
//             | "PING"              ; liveness
//             | "QUIT"              ; server answers BYE and closes
//   items    := uint (SP uint)*     ; any order; duplicates collapse
//
//   response := "OK" SP support SP tier   ; exact answer
//             | "RJ" SP bound             ; sup_hat(X) < minsup: not frequent,
//                                         ; sup(X) <= bound, exact count skipped
//             | "INFO" SP k=v ...         ; items, transactions, minsup, segments
//             | "STATS" SP k=v ...
//             | "METRICS" SP n NL body    ; n = body line count (see below)
//             | "SLOWLOG" SP n NL body    ; n entry lines, newest first
//             | "PROFILE" SP n NL body    ; n folded-stack lines
//                                         ; ("frame;frame;... count")
//             | "PONG"
//             | "BYE"
//             | "ERR" SP message          ; malformed line, oversized query,
//                                         ; or backpressure; connection stays up
//   tier     := "singleton" | "cache" | "exact"
//
// Multi-line responses (METRICS, SLOWLOG, PROFILE) stay inside the one-
// response-per-request ordering contract: the header line carries the
// number of body lines that follow, so a pipelining client reads exactly
// n more lines before the next response. Without serve telemetry
// configured METRICS and SLOWLOG answer with n = 0. PROFILE blocks its
// own connection for the sampling window (other connections keep being
// served) and answers ERR when a profile is already in flight anywhere in
// the process — the SIGPROF sampler is process-global.
//
// Introspection verbs (INFO/STATS/METRICS/SLOWLOG) are evaluated when the
// request line is parsed, not when the response flushes: queries pipelined
// ahead of them on the same connection may still be in flight and not yet
// counted. Scrapers that want completed traffic read their query answers
// first (or scrape on a separate connection, as Prometheus does).
//
// STATS keys appear in this order, and new keys are only ever appended:
//   queries bound_rejects singleton_hits cache_hits exact_counts
//   cache_size batches coalesced backpressure queue_depth
//   queue_wait_p50_us queue_wait_p95_us queue_wait_p99_us
// The queue_* keys report the batcher's live queue depth and the
// since-boot queue-wait distribution; they read 0 without serve telemetry.
// batches, coalesced and queue_* cover only queries that needed an exact
// count: the server answers the other tiers without queueing them.
#include <string>
#include <string_view>

#include "common/status.h"
#include "data/item.h"
#include "serve/query_engine.h"

namespace ossm {
namespace serve {

enum class RequestKind {
  kQuery,
  kInfo,
  kStats,
  kMetrics,
  kSlowlog,
  kProfile,
  kPing,
  kQuit,
};

struct Request {
  RequestKind kind = RequestKind::kQuery;
  Itemset itemset;  // canonicalized (sorted, deduplicated); kQuery only
  uint32_t slowlog_count = 16;  // kSlowlog only; capped by the server
  uint32_t profile_ms = 200;    // kProfile only; capped by the server
};

// Parses one request line (without the terminating '\n'). Rejects unknown
// verbs, non-numeric items, and — when max_items > 0 — queries with more
// than max_items distinct items (the per-connection query-size limit).
StatusOr<Request> ParseRequest(std::string_view line, uint32_t max_items = 0);

// Renders a query answer as its response line (no trailing newline).
std::string FormatResult(const QueryResult& result);

// Renders a non-OK status as an ERR line (message newlines flattened).
std::string FormatError(const Status& status);

}  // namespace serve
}  // namespace ossm

#endif  // OSSM_SERVE_PROTOCOL_H_

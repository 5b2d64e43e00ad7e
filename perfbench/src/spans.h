#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// In-memory spans recorded by ossm_perfbench around its own calls into each
// layer (the program under test is not instrumented further). Spans are
// kept in memory during the run and written once at exit.

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;   // index of the enclosing span, -1 for a root
  uint64_t request = 0;  // shared by every span of one request; 0 = none
};

class SpanLog {
 public:
  // A disabled log records nothing and every call is a no-op.
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  // Opens a span now; returns its index (-1 when disabled).
  int32_t Begin(std::string_view name, int32_t parent = -1,
                uint64_t request = 0);
  void End(int32_t id);
  // Records a span whose endpoints were taken elsewhere (e.g. request
  // timestamps kept by the load generator). Returns its index.
  int32_t Add(std::string_view name, int64_t start_ns, int64_t end_ns,
              int32_t parent = -1, uint64_t request = 0);

  std::vector<Span> Snapshot() const;

  // Self time (ms) of every span named `name`, in record order: its
  // duration minus the part of it that the union of its children covers.
  std::vector<double> SelfMs(std::string_view name) const;

  // Writes every span as one JSON object per array element.
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Self time of `spans[id]` given all spans (exposed for the tests).
int64_t SelfTimeNs(const std::vector<Span>& spans, size_t id);

// RAII span; a null or disabled log makes it free.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string_view name, int32_t parent = -1,
             uint64_t request = 0)
      : log_(log),
        id_(log != nullptr ? log->Begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_

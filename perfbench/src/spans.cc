#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "harness.h"

namespace perfbench {

int32_t SpanLog::Begin(std::string_view name, int32_t parent,
                       uint64_t request) {
  if (!enabled_) return -1;
  int64_t now = NowNs();
  return Add(name, now, now, parent, request);
}

void SpanLog::End(int32_t id) {
  if (!enabled_ || id < 0) return;
  int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int32_t SpanLog::Add(std::string_view name, int64_t start_ns, int64_t end_ns,
                     int32_t parent, uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::string(name), start_ns, end_ns, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

int64_t SelfTimeNs(const std::vector<Span>& spans, size_t id) {
  const Span& span = spans[id];
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (const Span& child : spans) {
    if (child.parent != static_cast<int32_t>(id)) continue;
    int64_t begin = std::max(child.start_ns, span.start_ns);
    int64_t end = std::min(child.end_ns, span.end_ns);
    if (begin < end) covered.emplace_back(begin, end);
  }
  std::sort(covered.begin(), covered.end());
  int64_t union_ns = 0;
  int64_t reach = span.start_ns;
  for (const auto& [begin, end] : covered) {
    int64_t from = std::max(begin, reach);
    if (end > from) {
      union_ns += end - from;
      reach = end;
    }
  }
  return (span.end_ns - span.start_ns) - union_ns;
}

std::vector<double> SpanLog::SelfMs(std::string_view name) const {
  std::vector<Span> spans = Snapshot();
  std::vector<double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) out.push_back(SelfTimeNs(spans, i) / 1e6);
  }
  return out;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::vector<Span> spans = Snapshot();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("[\n", file);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(file,
                 "%s{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"request\": %llu}",
                 i == 0 ? "" : ",\n", i, JsonEscape(s.name).c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("\n]\n", file);
  return std::fclose(file) == 0;
}

}  // namespace perfbench

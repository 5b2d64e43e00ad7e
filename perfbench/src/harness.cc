#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

std::chrono::steady_clock::time_point Epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Epoch())
      .count();
}

void SleepUntilNs(int64_t when_ns) {
  std::this_thread::sleep_until(Epoch() + std::chrono::nanoseconds(when_ns));
}

void SpinUntilNs(int64_t when_ns) {
  while (NowNs() < when_ns) {
  }
}

namespace {

// 1-based nearest rank of percentile p among n samples, clamped to [1, n].
uint64_t NearestRank(uint64_t n, double p) {
  double exact = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  uint64_t rank = exact < 1.0 ? 1 : static_cast<uint64_t>(exact);
  return rank > n ? n : rank;
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[NearestRank(sorted.size(), p) - 1];
}

uint64_t SamplesBeyond(uint64_t n, double p) {
  if (n == 0) return 0;
  return n - NearestRank(n, p);
}

TailPick PickTail(const std::vector<double>& sorted, double preferred) {
  static constexpr double kRungs[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  TailPick pick;
  pick.samples = sorted.size();
  pick.percentile = 50.0;
  if (SamplesBeyond(sorted.size(), preferred) >= kMinTailBeyond) {
    pick.percentile = preferred;
  } else {
    pick.degraded = true;
    for (double rung : kRungs) {
      if (rung < preferred &&
          SamplesBeyond(sorted.size(), rung) >= kMinTailBeyond) {
        pick.percentile = rung;
        break;
      }
    }
  }
  pick.value = Percentile(sorted, pick.percentile);
  pick.beyond = SamplesBeyond(sorted.size(), pick.percentile);
  return pick;
}

LatencySummary SummarizeLatencies(const std::vector<double>& sorted,
                                  double preferred) {
  return LatencySummary{Percentile(sorted, 50), PickTail(sorted, preferred),
                        1};
}

LatencySummary SummarizeWindows(
    const std::vector<std::vector<double>>& sorted_windows, double preferred) {
  const std::vector<double>* smallest = nullptr;
  for (const std::vector<double>& window : sorted_windows) {
    if (!window.empty() &&
        (smallest == nullptr || window.size() < smallest->size())) {
      smallest = &window;
    }
  }
  LatencySummary summary;
  if (smallest == nullptr) return summary;
  summary.tail = PickTail(*smallest, preferred);
  std::vector<double> p50s, tails;
  for (const std::vector<double>& window : sorted_windows) {
    if (window.empty()) continue;
    p50s.push_back(Percentile(window, 50));
    tails.push_back(Percentile(window, summary.tail.percentile));
  }
  summary.p50_ms = Median(p50s);
  summary.tail.value = Median(tails);
  summary.windows = p50s.size();
  return summary;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

void LatencyReservoir::Add(double value_ms) {
  ++seen_;
  if (sample_.size() < capacity_) {
    sample_.push_back(value_ms);
    return;
  }
  // splitmix64 step: a seeded, platform-independent index draw.
  state_ += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  uint64_t slot = z % seen_;
  if (slot < capacity_) sample_[slot] = value_ms;
}

std::vector<double> LatencyReservoir::Sorted() const {
  std::vector<double> sorted = sample_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

void LatencyWindows::Add(int64_t when_ns, double latency_ms) {
  if (when_ns < start_ns_) return;
  size_t window = static_cast<size_t>((when_ns - start_ns_) / window_ns_);
  while (windows_.size() <= window) {
    windows_.emplace_back(capacity_, seed_ + windows_.size());
  }
  windows_[window].Add(latency_ms);
}

std::vector<std::vector<double>> LatencyWindows::Sorted(int64_t end_ns) const {
  std::vector<std::vector<double>> closed;
  for (size_t w = 0; w < windows_.size(); ++w) {
    if (start_ns_ + static_cast<int64_t>(w + 1) * window_ns_ > end_ns) break;
    closed.push_back(windows_[w].Sorted());
  }
  if (closed.empty()) {
    for (const LatencyReservoir& window : windows_) {
      closed.push_back(window.Sorted());
    }
  }
  return closed;
}

void RateWindows::Add(int64_t when_ns) {
  if (when_ns < start_ns_) return;
  size_t window = static_cast<size_t>((when_ns - start_ns_) / window_ns_);
  if (window >= counts_.size()) counts_.resize(window + 1, 0);
  ++counts_[window];
}

std::vector<double> RateWindows::Rates(int64_t end_ns) const {
  std::vector<double> rates;
  for (size_t w = 0; w < counts_.size(); ++w) {
    if (start_ns_ + static_cast<int64_t>(w + 1) * window_ns_ > end_ns) break;
    rates.push_back(static_cast<double>(counts_[w]) * 1e9 /
                    static_cast<double>(window_ns_));
  }
  return rates;
}

double RateWindows::MedianRate(int64_t end_ns) const {
  std::vector<double> rates = Rates(end_ns);
  if (!rates.empty()) return Median(rates);
  uint64_t total = 0;
  for (uint64_t count : counts_) total += count;
  return end_ns > start_ns_
             ? static_cast<double>(total) * 1e9 /
                   static_cast<double>(end_ns - start_ns_)
             : 0.0;
}

uint64_t OpenLoopSchedule::CountWithin(int64_t duration_ns) const {
  if (interval_ns <= 0 || duration_ns <= 0) return 0;
  return static_cast<uint64_t>((duration_ns - 1) / interval_ns) + 1;
}

void Tally::Add(Outcome outcome, uint64_t n) {
  counts_[static_cast<int>(outcome)] += n;
}

uint64_t Tally::attempted() const {
  return counts_[0] + counts_[1] + counts_[2] + counts_[3];
}

double Tally::ok_share() const {
  uint64_t total = attempted();
  return total == 0 ? 0.0
                    : static_cast<double>(ok()) / static_cast<double>(total);
}

namespace {

bool ParseUint(std::string_view text, uint64_t* value) {
  if (text.empty()) return false;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *value);
  return ec == std::errc() && ptr == end;
}

}  // namespace

Reply ParseReply(std::string_view line) {
  Reply reply;
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (line.starts_with("ERR")) {
    reply.kind = Reply::Kind::kError;
    return reply;
  }
  if (line.starts_with("RJ ")) {
    if (ParseUint(line.substr(3), &reply.value)) {
      reply.kind = Reply::Kind::kReject;
    }
    return reply;
  }
  if (line.starts_with("OK ")) {
    std::string_view rest = line.substr(3);
    size_t space = rest.find(' ');
    if (space == std::string_view::npos) return reply;
    if (!ParseUint(rest.substr(0, space), &reply.value)) return reply;
    std::string_view tier = rest.substr(space + 1);
    if (tier == "singleton") {
      reply.kind = Reply::Kind::kSingleton;
    } else if (tier == "cache") {
      reply.kind = Reply::Kind::kCache;
    } else if (tier == "exact") {
      reply.kind = Reply::Kind::kExact;
    }
  }
  return reply;
}

Outcome Judge(const Reply& reply, uint64_t true_support,
              uint64_t min_support) {
  switch (reply.kind) {
    case Reply::Kind::kSingleton:
    case Reply::Kind::kCache:
    case Reply::Kind::kExact:
      return reply.value == true_support ? Outcome::kOk : Outcome::kWrong;
    case Reply::Kind::kReject:
      return true_support < min_support && true_support <= reply.value
                 ? Outcome::kOk
                 : Outcome::kWrong;
    case Reply::Kind::kError:
      return Outcome::kError;
    case Reply::Kind::kMalformed:
      break;
  }
  return Outcome::kWrong;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      uint64_t kb = 0;
      std::string_view rest(line);
      rest.remove_prefix(6);
      while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t')) {
        rest.remove_prefix(1);
      }
      size_t digits = rest.find_first_not_of("0123456789");
      if (ParseUint(rest.substr(0, digits), &kb)) return kb / 1024.0;
    }
  }
  return 0.0;
}

double HostStealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t fields[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") return 0.0;
  for (uint64_t& field : fields) {
    if (!(stat >> field)) return 0.0;
  }
  long ticks = sysconf(_SC_CLK_TCK);
  return ticks > 0 ? static_cast<double>(fields[7]) / ticks : 0.0;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) return "0";
  return std::string(buffer, ptr);
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + JsonEscape(metrics[i].name) + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            JsonEscape(metrics[i].unit) + "\"}";
  }
  line += "}}";
  return line;
}

}  // namespace perfbench

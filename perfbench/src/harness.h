#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Workload-independent pieces of ossm_perfbench: percentile and tail
// selection, the open-loop schedule, outcome accounting, reply judging and
// the result line. Kept free of the ossm libraries so the harness tests
// exercise them directly.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Nanoseconds on the steady clock since the first call in this process.
int64_t NowNs();
// Sleeps until NowNs() reaches `when_ns` (returns at once if it has).
void SleepUntilNs(int64_t when_ns);
// Busy-waits until NowNs() reaches `when_ns`: an open-loop sender that
// sleeps is woken late by the host, and that lateness would be charged to
// the program.
void SpinUntilNs(int64_t when_ns);

// ---- percentiles ----

// Nearest-rank percentile of ascending `sorted`: the sample at 1-based
// rank ceil(p/100 * n). 0 when empty.
double Percentile(const std::vector<double>& sorted, double p);

// Samples strictly above the nearest-rank position of percentile p among n.
uint64_t SamplesBeyond(uint64_t n, double p);

// A tail percentile is only reported when at least this many samples lie
// beyond it; otherwise one extreme sample would decide the metric.
inline constexpr uint64_t kMinTailBeyond = 10;

struct TailPick {
  double percentile = 0.0;  // e.g. 90 for p90
  double value = 0.0;
  uint64_t samples = 0;
  uint64_t beyond = 0;
  // The preferred percentile had fewer than kMinTailBeyond samples beyond
  // it, so a lower rung was taken.
  bool degraded = false;
};

// The workload's preferred tail percentile, or when fewer than
// kMinTailBeyond samples lie beyond it, the highest lower rung of
// {99.9, 99, 95, 90, 75, 50} that has them (p50 when none has).
TailPick PickTail(const std::vector<double>& sorted, double preferred);

// p50 and tail of one pass. `windows` is how many run windows they are
// medians over (1: taken over the whole pass).
struct LatencySummary {
  double p50_ms = 0.0;
  TailPick tail;
  size_t windows = 0;
};

// p50 and PickTail over the whole ascending sample.
LatencySummary SummarizeLatencies(const std::vector<double>& sorted,
                                  double preferred);

// Medians over windows of each window's p50 and tail percentile. The tail
// percentile is picked on the smallest window, so every window has at
// least kMinTailBeyond samples beyond it; `samples` and `beyond` are that
// window's. Each window is ascending; empty windows are skipped.
LatencySummary SummarizeWindows(
    const std::vector<std::vector<double>>& sorted_windows, double preferred);

// ---- samples ----

// Median of `values` (0 when empty); the values are copied and sorted.
double Median(std::vector<double> values);

// A uniform sample of at most `capacity` values (Algorithm R, seeded), so
// a closed loop that completes millions of requests keeps a bounded sample
// instead of memory that grows with the program's throughput.
class LatencyReservoir {
 public:
  LatencyReservoir(size_t capacity, uint64_t seed)
      : capacity_(capacity), state_(seed | 1) {}
  void Add(double value_ms);
  uint64_t seen() const { return seen_; }
  // The retained sample, ascending.
  std::vector<double> Sorted() const;

 private:
  size_t capacity_;
  uint64_t state_;
  uint64_t seen_ = 0;
  std::vector<double> sample_;
};

// Correct completions counted in fixed windows after a start time. The
// median window rate shrugs off a burst of host noise that a whole-run
// average would absorb.
class RateWindows {
 public:
  RateWindows(int64_t start_ns, int64_t window_ns)
      : start_ns_(start_ns), window_ns_(window_ns) {}
  void Add(int64_t when_ns);
  // Per-second rate of each window that closed by end_ns.
  std::vector<double> Rates(int64_t end_ns) const;
  // Median of Rates(end_ns); the whole-run rate when no window closed.
  double MedianRate(int64_t end_ns) const;

 private:
  int64_t start_ns_;
  int64_t window_ns_;
  std::vector<uint64_t> counts_;
};

// Latencies grouped into fixed windows of a pass by when each request was
// timed from, with a bounded seeded sample per window. A percentile taken
// as the median over windows shrugs off bursts of host noise (CPU stolen
// by other guests) that a whole-pass percentile absorbs.
class LatencyWindows {
 public:
  LatencyWindows(int64_t start_ns, int64_t window_ns, size_t capacity,
                 uint64_t seed)
      : start_ns_(start_ns),
        window_ns_(window_ns),
        capacity_(capacity),
        seed_(seed) {}
  void Add(int64_t when_ns, double latency_ms);
  // The sample of each window that closed by end_ns, ascending; every
  // window that has samples when none closed yet.
  std::vector<std::vector<double>> Sorted(int64_t end_ns) const;

 private:
  int64_t start_ns_;
  int64_t window_ns_;
  size_t capacity_;
  uint64_t seed_;
  std::vector<LatencyReservoir> windows_;
};

// ---- open loop ----

// Fixed-interval arrivals: request i is due interval_ns * i after the
// stream starts, whether or not earlier replies have come back. Latency is
// measured from DueNs, so a stall also charges the requests queued behind
// it; how late the sender itself ran is reported separately.
struct OpenLoopSchedule {
  int64_t interval_ns = 0;
  int64_t DueNs(uint64_t i) const {
    return interval_ns * static_cast<int64_t>(i);
  }
  // Requests due strictly before `duration_ns`.
  uint64_t CountWithin(int64_t duration_ns) const;
  // Latency of request i of a stream started at start_ns and answered at
  // reply_ns: from when it was due, however late it was actually sent.
  double LatencyMs(int64_t start_ns, uint64_t i, int64_t reply_ns) const {
    return static_cast<double>(reply_ns - start_ns - DueNs(i)) / 1e6;
  }
  // How late the generator sent request i.
  double LatenessMs(int64_t start_ns, uint64_t i, int64_t sent_ns) const {
    return LatencyMs(start_ns, i, sent_ns);
  }
};

// ---- outcomes ----

enum class Outcome : uint8_t {
  kOk,       // answered, and the answer checks out
  kWrong,    // answered with a value the oracle refutes
  kError,    // ERR reply: malformed, backpressure or engine failure
  kMissing,  // no reply by the deadline
};

// Attempted and correct operations; everything not kOk is a failure.
class Tally {
 public:
  void Add(Outcome outcome, uint64_t n = 1);
  uint64_t attempted() const;
  uint64_t ok() const { return counts_[0]; }
  uint64_t failed() const { return attempted() - ok(); }
  uint64_t count(Outcome outcome) const {
    return counts_[static_cast<int>(outcome)];
  }
  // ok / attempted; 0 when nothing was attempted.
  double ok_share() const;

 private:
  uint64_t counts_[4] = {0, 0, 0, 0};
};

// ---- replies ----

// One response line of the serving protocol (serve/protocol.h).
struct Reply {
  // The three OK tiers, then RJ, ERR and anything unparseable.
  enum class Kind : uint8_t {
    kSingleton, kCache, kExact, kReject, kError, kMalformed
  };
  Kind kind = Kind::kMalformed;
  uint64_t value = 0;  // exact support (OK) or the Eq. (1) bound (RJ)
};

Reply ParseReply(std::string_view line);

// Judges a reply against the true support: an OK must carry exactly it;
// an RJ is sound only when the itemset really is infrequent and the
// returned bound really bounds it.
Outcome Judge(const Reply& reply, uint64_t true_support, uint64_t min_support);

// ---- process ----

// VmHWM (peak resident set) of this process in MiB; 0 when unreadable.
double PeakRssMb();

// CPU time the hypervisor gave to other guests (the "steal" column of
// /proc/stat, all CPUs), in seconds since boot; 0 when unreadable. The
// difference across a pass says how much of it the host took away.
double HostStealSeconds();

// ---- output ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Shortest decimal text that reads back as exactly `value`.
std::string FormatNumber(double value);

std::string JsonEscape(std::string_view text);

// The benchmark's final stdout line.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

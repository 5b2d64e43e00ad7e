#ifndef OSSM_OBS_HDR_HISTOGRAM_H_
#define OSSM_OBS_HDR_HISTOGRAM_H_

#include <atomic>
#include <cstdint>
#include <vector>

namespace ossm {
namespace obs {

// Log-linear ("HDR-style") bucket layout over non-negative integers: every
// power-of-two range is subdivided into 32 linear sub-buckets, so the
// relative bucket resolution is at most 1/32 (~3.1%) at any magnitude,
// where plain power-of-two buckets would be off by up to 2x. That is what
// makes p99s of microsecond latencies meaningful: a tail estimate is
// always within one sub-bucket of the exact sorted-sample percentile (see
// PercentileErrorBound()).
//
// Layout (kSubBucketBits = 5, kSubBuckets = 32):
//   - values 0..31 get one bucket each (exact);
//   - a value v >= 32 with bit width r (6..64) lands in range r-6,
//     sub-bucket (v >> (r-6)) - 32, i.e. the 5 bits after the leading one.
// Total: 32 + 59*32 = 1920 buckets, ~15 KB of atomics per histogram.
struct HdrBucketLayout {
  static constexpr int kSubBucketBits = 5;
  static constexpr uint64_t kSubBuckets = uint64_t{1} << kSubBucketBits;
  // Ranges cover bit widths 6..64: 59 of them, plus the 32 exact buckets.
  static constexpr size_t kNumBuckets =
      kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;  // 1920

  static size_t BucketIndex(uint64_t value);
  // Smallest / largest value mapping to bucket i.
  static uint64_t BucketLower(size_t i);
  static uint64_t BucketUpper(size_t i);

  // Upper bound on |estimate - exact| / exact for any nonzero percentile
  // estimate: estimate and exact share a bucket of relative width <= 1/32.
  static constexpr double PercentileErrorBound() { return 1.0 / 32.0; }
};

// A point-in-time view of an HdrHistogram's buckets. Snapshots are plain
// data: mergeable (MergeFrom sums bucket-wise — the multi-shard /
// multi-window aggregation primitive) and subtractable (SubtractBaseline
// turns two cumulative snapshots into the delta for the interval between
// them — the windowed-aggregation primitive in obs/window.h).
class HdrSnapshot {
 public:
  HdrSnapshot() = default;

  void Record(uint64_t sample);  // for building deltas/tests without atomics
  void MergeFrom(const HdrSnapshot& other);
  // Subtracts an earlier cumulative snapshot of the same histogram,
  // leaving the samples recorded in between. Counts are monotonic, so
  // every per-bucket difference is non-negative for genuine baselines;
  // mismatched inputs clamp at zero instead of wrapping.
  void SubtractBaseline(const HdrSnapshot& earlier);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  bool empty() const { return count_ == 0; }

  // The p-quantile (p in [0, 1]) under the sorted-sample convention
  // (rank ceil(p*n), 1-based, clamped to [1, n]): samples inside the
  // holding bucket are assumed evenly spread from its lower to its upper
  // bound, so a bucket's first sample reports the lower bound — never the
  // upper-bound bias of naive interpolation. 0 when empty. The estimate is
  // always inside the bucket holding the exact rank-th sample, hence
  // within HdrBucketLayout::PercentileErrorBound() of it.
  double Percentile(double p) const;

  const std::vector<uint64_t>& buckets() const { return buckets_; }

 private:
  friend class HdrHistogram;
  // Lazily sized: empty vector == all zeros (snapshots of idle histograms
  // stay cheap, which matters for the window rings).
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

// The live, concurrent histogram, and the one histogram type the metrics
// registry hands out: Record is a handful of relaxed atomic operations, so
// it is safe on serving paths under full concurrency. Reads
// (Snapshot/Percentile) are wait-free walks over the atomics; a snapshot
// taken concurrently with writers is a consistent-enough view (each bucket
// is read once).
class HdrHistogram {
 public:
  HdrHistogram();

  HdrHistogram(const HdrHistogram&) = delete;
  HdrHistogram& operator=(const HdrHistogram&) = delete;

  void Record(uint64_t sample);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  // Smallest / largest recorded sample; UINT64_MAX / 0 when empty.
  uint64_t min() const { return min_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }

  // Same convention as HdrSnapshot::Percentile, additionally clamped to
  // the exact [min, max] the live histogram tracks.
  double Percentile(double p) const;

  HdrSnapshot Snapshot() const;

 private:
  std::vector<std::atomic<uint64_t>> buckets_;  // kNumBuckets slots
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

}  // namespace obs
}  // namespace ossm

#endif  // OSSM_OBS_HDR_HISTOGRAM_H_

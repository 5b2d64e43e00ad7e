#include "obs/hdr_histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace ossm {
namespace obs {

size_t HdrBucketLayout::BucketIndex(uint64_t value) {
  if (value < kSubBuckets) return static_cast<size_t>(value);
  const int range = std::bit_width(value) - (kSubBucketBits + 1);  // >= 0
  const uint64_t sub = (value >> range) - kSubBuckets;             // [0, 32)
  return kSubBuckets + static_cast<size_t>(range) * kSubBuckets +
         static_cast<size_t>(sub);
}

uint64_t HdrBucketLayout::BucketLower(size_t i) {
  if (i < kSubBuckets) return i;
  const size_t range = (i - kSubBuckets) / kSubBuckets;
  const uint64_t sub = (i - kSubBuckets) % kSubBuckets;
  return (kSubBuckets + sub) << range;
}

uint64_t HdrBucketLayout::BucketUpper(size_t i) {
  if (i < kSubBuckets) return i;
  const size_t range = (i - kSubBuckets) / kSubBuckets;
  const uint64_t lower = BucketLower(i);
  // The last bucket's nominal width would wrap past UINT64_MAX.
  const uint64_t width = uint64_t{1} << range;
  return lower > UINT64_MAX - (width - 1) ? UINT64_MAX : lower + (width - 1);
}

void HdrSnapshot::Record(uint64_t sample) {
  if (buckets_.empty()) buckets_.resize(HdrBucketLayout::kNumBuckets, 0);
  buckets_[HdrBucketLayout::BucketIndex(sample)] += 1;
  count_ += 1;
  sum_ += sample;
}

void HdrSnapshot::MergeFrom(const HdrSnapshot& other) {
  if (other.buckets_.empty()) return;
  if (buckets_.empty()) buckets_.resize(HdrBucketLayout::kNumBuckets, 0);
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

void HdrSnapshot::SubtractBaseline(const HdrSnapshot& earlier) {
  if (earlier.buckets_.empty()) return;  // nothing recorded at baseline time
  if (buckets_.empty()) buckets_.resize(HdrBucketLayout::kNumBuckets, 0);
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] -= std::min(buckets_[i], earlier.buckets_[i]);
  }
  count_ -= std::min(count_, earlier.count_);
  sum_ -= std::min(sum_, earlier.sum_);
}

namespace {

// Shared by live and snapshot percentiles. `Buckets` needs operator[]
// returning something convertible to uint64_t.
template <typename Buckets>
double PercentileFromBuckets(const Buckets& buckets, size_t num_buckets,
                             uint64_t count, double p) {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // 1-based rank of the target sample under the sorted-sample convention.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p * static_cast<double>(count)));
  rank = std::clamp<uint64_t>(rank, 1, count);

  uint64_t seen = 0;
  size_t last_occupied = num_buckets;
  for (size_t i = 0; i < num_buckets; ++i) {
    const uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    last_occupied = i;
    if (seen + in_bucket < rank) {
      seen += in_bucket;
      continue;
    }
    const double lower = static_cast<double>(HdrBucketLayout::BucketLower(i));
    const double upper = static_cast<double>(HdrBucketLayout::BucketUpper(i));
    // 0-based position of the target among this bucket's samples: the
    // first sample sits at the lower bound, the last at the upper bound.
    const uint64_t position = rank - seen - 1;
    const double fraction =
        in_bucket <= 1 ? 0.0
                       : static_cast<double>(position) /
                             static_cast<double>(in_bucket - 1);
    return lower + fraction * (upper - lower);
  }
  // `count` can race ahead of the bucket increments on the live histogram;
  // the best answer the buckets support is the top of the last one.
  return last_occupied == num_buckets
             ? 0.0
             : static_cast<double>(HdrBucketLayout::BucketUpper(last_occupied));
}

struct AtomicBucketView {
  const std::atomic<uint64_t>* data;
  uint64_t operator[](size_t i) const {
    return data[i].load(std::memory_order_relaxed);
  }
};

}  // namespace

double HdrSnapshot::Percentile(double p) const {
  if (buckets_.empty()) return 0.0;
  return PercentileFromBuckets(buckets_, buckets_.size(), count_, p);
}

HdrHistogram::HdrHistogram() : buckets_(HdrBucketLayout::kNumBuckets) {}

void HdrHistogram::Record(uint64_t sample) {
  buckets_[HdrBucketLayout::BucketIndex(sample)].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
  uint64_t observed = min_.load(std::memory_order_relaxed);
  while (sample < observed &&
         !min_.compare_exchange_weak(observed, sample,
                                     std::memory_order_relaxed)) {
  }
  observed = max_.load(std::memory_order_relaxed);
  while (sample > observed &&
         !max_.compare_exchange_weak(observed, sample,
                                     std::memory_order_relaxed)) {
  }
}

double HdrHistogram::Percentile(double p) const {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  double estimate = PercentileFromBuckets(AtomicBucketView{buckets_.data()},
                                          buckets_.size(), n, p);
  return std::clamp(estimate, static_cast<double>(min()),
                    static_cast<double>(max()));
}

HdrSnapshot HdrHistogram::Snapshot() const {
  HdrSnapshot snapshot;
  snapshot.buckets_.resize(HdrBucketLayout::kNumBuckets, 0);
  for (size_t i = 0; i < buckets_.size(); ++i) {
    snapshot.buckets_[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snapshot.count_ = count();
  snapshot.sum_ = sum();
  return snapshot;
}

}  // namespace obs
}  // namespace ossm

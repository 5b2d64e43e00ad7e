#ifndef OSSM_CORE_SUPPORT_INTERVAL_H_
#define OSSM_CORE_SUPPORT_INTERVAL_H_

#include <algorithm>
#include <cstdint>

namespace ossm {

// A closed interval [lower, upper] known to contain an itemset's support.
// Equation (1) supplies one-sided information (lower = 0); deduction-rule
// pruners supply both sides. The degenerate case lower == upper means the
// support is *derived*: exactly known without touching the database.
//
// Soundness contract: any producer of a SupportInterval must guarantee
// lower <= sup(I) <= upper for the true support. Under that contract,
// intersecting intervals from independent bound sources is lossless — which
// is what lets a miner take the min of the OSSM upper bound and the
// non-derivable-itemset upper bound and still mine bit-identical patterns.
struct SupportInterval {
  uint64_t lower = 0;
  uint64_t upper = UINT64_MAX;

  // The support is exactly determined; counting it would be wasted work.
  bool Exact() const { return lower == upper; }

  bool Contains(uint64_t support) const {
    return lower <= support && support <= upper;
  }

  // The intersection of two sound intervals is sound (and never empty for
  // intervals that both contain the true support).
  static SupportInterval Intersect(const SupportInterval& a,
                                   const SupportInterval& b) {
    return {std::max(a.lower, b.lower), std::min(a.upper, b.upper)};
  }

  friend bool operator==(const SupportInterval& a,
                         const SupportInterval& b) = default;
};

}  // namespace ossm

#endif  // OSSM_CORE_SUPPORT_INTERVAL_H_

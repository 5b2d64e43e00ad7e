#include "kernels/kernels.h"

// The scalar baseline: portable C++ compiled at the build's default ISA
// level. This is both the fallback for CPUs without AVX2 and the reference
// the differential tests and the kernel bench compare the vector levels
// against.

namespace ossm {
namespace kernels {
namespace {

uint64_t MinSumScalar(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += a[i] < b[i] ? a[i] : b[i];
  }
  return total;
}

void MinAccumulateScalar(uint64_t* acc, const uint64_t* row, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (row[i] < acc[i]) acc[i] = row[i];
  }
}

uint64_t SumScalar(const uint64_t* v, size_t n) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) total += v[i];
  return total;
}

uint64_t AndPopcountScalar(const uint64_t* a, const uint64_t* b,
                           size_t nwords) {
  uint64_t total = 0;
  for (size_t i = 0; i < nwords; ++i) {
    total += static_cast<uint64_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return total;
}

uint64_t AndCountScalar(const uint64_t* a, const uint64_t* b, uint64_t* out,
                        size_t nwords) {
  uint64_t total = 0;
  for (size_t i = 0; i < nwords; ++i) {
    uint64_t w = a[i] & b[i];
    out[i] = w;
    total += static_cast<uint64_t>(__builtin_popcountll(w));
  }
  return total;
}

uint64_t PopcountScalar(const uint64_t* v, size_t nwords) {
  uint64_t total = 0;
  for (size_t i = 0; i < nwords; ++i) {
    total += static_cast<uint64_t>(__builtin_popcountll(v[i]));
  }
  return total;
}

}  // namespace

const KernelOps& ScalarOps() {
  static const KernelOps ops = {
      MinSumScalar,      MinAccumulateScalar, SumScalar,
      AndPopcountScalar, AndCountScalar,      PopcountScalar,
  };
  return ops;
}

}  // namespace kernels
}  // namespace ossm

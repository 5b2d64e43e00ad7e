#ifndef OSSM_KERNELS_KERNELS_H_
#define OSSM_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace ossm {
namespace kernels {

// Runtime-dispatched integer kernels behind every hot loop in the library:
// the equation-(1) min-sum bound (SegmentSupportMap) and AND+popcount
// containment counting (BitmapIndex, Eclat, QueryEngine). The equation-(2)
// loss needs none: its closed form (core/ossub.h) is a sort.
//
// Every kernel is an exact integer reduction — min, add, popcount — over
// uint64_t, with all additions wrapping mod 2^64 exactly as a scalar loop
// would. Modular addition is associative and commutative, so any lane
// split, accumulator shape, or horizontal-reduction order produces the same
// 64-bit result: the scalar and vector implementations are bit-identical by
// construction, for any input, and the differential tests in
// tests/kernels_test.cc enforce it.
//
// The implementation level is selected once at first use: the best ISA the
// CPU supports, overridable with OSSM_SIMD=scalar|avx2|native (for CI runs
// and debugging). Pointers may have any alignment — tails and misalignment
// are handled inside each kernel — but the hot structures allocate rows
// 64-byte aligned (common/aligned.h) so vector loads never straddle cache
// lines.

enum class Isa : uint8_t {
  kScalar = 0,
  kAvx2 = 1,
};

// One implementation level's entry points. All function pointers are
// non-null in every table.
struct KernelOps {
  // sum_i min(a[i], b[i]) — the equation-(1) pair bound over two item rows.
  uint64_t (*min_sum)(const uint64_t* a, const uint64_t* b, size_t n);
  // acc[i] = min(acc[i], row[i]) — one k-ary min-accumulation step.
  void (*min_accumulate)(uint64_t* acc, const uint64_t* row, size_t n);
  // sum_i v[i] (mod 2^64).
  uint64_t (*sum)(const uint64_t* v, size_t n);
  // popcount(a AND b) over nwords 64-bit words — pair intersection size.
  uint64_t (*and_popcount)(const uint64_t* a, const uint64_t* b,
                           size_t nwords);
  // out[i] = a[i] & b[i], returning popcount(out) — one fused k-ary
  // intersection step. out may alias a or b.
  uint64_t (*and_count)(const uint64_t* a, const uint64_t* b, uint64_t* out,
                        size_t nwords);
  // sum_i popcount(v[i]).
  uint64_t (*popcount)(const uint64_t* v, size_t nwords);
};

// The tables themselves. Avx2Ops() must only be called when
// IsaSupported(Isa::kAvx2); the differential tests and the kernel bench use
// these to pit levels against each other without mutating global dispatch.
const KernelOps& ScalarOps();
const KernelOps& OpsFor(Isa isa);  // CHECK-fails when unsupported

// True when `isa` can run on this build + CPU. kScalar is always true.
bool IsaSupported(Isa isa);

// Every level this process can run, in ascending preference order.
std::vector<Isa> SupportedIsas();

// The dispatched level: resolved on first use from OSSM_SIMD and cpuid.
// An unsupported or unknown OSSM_SIMD value warns on stderr and falls back
// (unknown -> native, unsupported -> best supported).
Isa ActiveIsa();

// Parses an OSSM_SIMD spec: "scalar", "avx2", "native" ("" = native).
StatusOr<Isa> ParseIsaSpec(std::string_view spec);

std::string_view IsaName(Isa isa);

// Re-points dispatch at `isa` (must be supported). Test/bench hook — the
// differential suites flip between scalar and native mid-process. Not for
// use while other threads are inside kernels.
void ForceIsa(Isa isa);

// ---- dispatched entry points (what the library calls) ----

const KernelOps& Active();

inline uint64_t MinSumU64(const uint64_t* a, const uint64_t* b, size_t n) {
  return Active().min_sum(a, b, n);
}
inline void MinAccumulateU64(uint64_t* acc, const uint64_t* row, size_t n) {
  Active().min_accumulate(acc, row, n);
}
inline uint64_t SumU64(const uint64_t* v, size_t n) {
  return Active().sum(v, n);
}
inline uint64_t AndPopcount(const uint64_t* a, const uint64_t* b,
                            size_t nwords) {
  return Active().and_popcount(a, b, nwords);
}
inline uint64_t AndCount(const uint64_t* a, const uint64_t* b, uint64_t* out,
                         size_t nwords) {
  return Active().and_count(a, b, out, nwords);
}
inline uint64_t PopcountU64(const uint64_t* v, size_t nwords) {
  return Active().popcount(v, nwords);
}

}  // namespace kernels
}  // namespace ossm

#endif  // OSSM_KERNELS_KERNELS_H_

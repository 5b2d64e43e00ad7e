// AVX2 kernel table. This translation unit is the only one compiled with
// -mavx2 (plus -mpopcnt for the tails); it is added to the build only on
// x86-64 and entered only after a cpuid check, so no AVX2 instruction can
// reach a CPU without the feature.
//
// Bit-identity with the scalar table: every kernel is min/add/popcount over
// uint64_t with additions mod 2^64. Lane-split partial sums plus a
// horizontal reduction compute the same modular sum as a left-to-right
// scalar loop, so results match bit for bit on any input (including values
// with the top bit set — unsigned mins use the sign-flip compare below).

#if defined(__AVX2__)

#include <immintrin.h>

#include "kernels/kernels.h"

namespace ossm {
namespace kernels {
namespace {

// Unsigned 64-bit min. AVX2 has no unsigned 64-bit compare (that's AVX-512),
// so bias both operands by 2^63 and compare signed: a <u b iff a^bias <s
// b^bias.
inline __m256i MinEpu64(__m256i a, __m256i b) {
  const __m256i bias = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ULL));
  __m256i a_gt_b = _mm256_cmpgt_epi64(_mm256_xor_si256(a, bias),
                                      _mm256_xor_si256(b, bias));
  // Where a > b take b, else a.
  return _mm256_blendv_epi8(a, b, a_gt_b);
}

inline uint64_t HorizontalSum(__m256i v) {
  __m128i lo = _mm256_castsi256_si128(v);
  __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i pair = _mm_add_epi64(lo, hi);
  __m128i swapped = _mm_unpackhi_epi64(pair, pair);
  return static_cast<uint64_t>(
      _mm_cvtsi128_si64(_mm_add_epi64(pair, swapped)));
}

uint64_t MinSumAvx2(const uint64_t* a, const uint64_t* b, size_t n) {
  // Two accumulators break the add->add dependency chain; the split is
  // still a mod-2^64 sum, so the result stays bit-identical to scalar.
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i va0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    __m256i va1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i + 4));
    __m256i vb1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i + 4));
    acc0 = _mm256_add_epi64(acc0, MinEpu64(va0, vb0));
    acc1 = _mm256_add_epi64(acc1, MinEpu64(va1, vb1));
  }
  for (; i + 4 <= n; i += 4) {
    __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc0 = _mm256_add_epi64(acc0, MinEpu64(va, vb));
  }
  uint64_t total = HorizontalSum(_mm256_add_epi64(acc0, acc1));
  for (; i < n; ++i) total += a[i] < b[i] ? a[i] : b[i];
  return total;
}

void MinAccumulateAvx2(uint64_t* acc, const uint64_t* row, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    __m256i vr =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                        MinEpu64(va, vr));
  }
  for (; i < n; ++i) {
    if (row[i] < acc[i]) acc[i] = row[i];
  }
}

uint64_t SumAvx2(const uint64_t* v, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(
        acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i)));
  }
  uint64_t total = HorizontalSum(acc);
  for (; i < n; ++i) total += v[i];
  return total;
}

// Per-word popcount of four 64-bit lanes via the classic nibble lookup
// (Mula): split each byte into nibbles, look both up in a 16-entry table,
// then _mm256_sad_epu8 folds the per-byte counts into per-lane u64 sums.
inline __m256i PopcntEpu64(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0F);
  __m256i lo = _mm256_and_si256(v, low_mask);
  __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                   _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

uint64_t AndPopcountAvx2(const uint64_t* a, const uint64_t* b,
                         size_t nwords) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= nwords; i += 4) {
    __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, PopcntEpu64(_mm256_and_si256(va, vb)));
  }
  uint64_t total = HorizontalSum(acc);
  for (; i < nwords; ++i) {
    total += static_cast<uint64_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return total;
}

uint64_t AndCountAvx2(const uint64_t* a, const uint64_t* b, uint64_t* out,
                      size_t nwords) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= nwords; i += 4) {
    __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    __m256i vw = _mm256_and_si256(va, vb);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), vw);
    acc = _mm256_add_epi64(acc, PopcntEpu64(vw));
  }
  uint64_t total = HorizontalSum(acc);
  for (; i < nwords; ++i) {
    uint64_t w = a[i] & b[i];
    out[i] = w;
    total += static_cast<uint64_t>(__builtin_popcountll(w));
  }
  return total;
}

uint64_t PopcountAvx2(const uint64_t* v, size_t nwords) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= nwords; i += 4) {
    acc = _mm256_add_epi64(
        acc, PopcntEpu64(_mm256_loadu_si256(
                 reinterpret_cast<const __m256i*>(v + i))));
  }
  uint64_t total = HorizontalSum(acc);
  for (; i < nwords; ++i) {
    total += static_cast<uint64_t>(__builtin_popcountll(v[i]));
  }
  return total;
}

}  // namespace

const KernelOps& Avx2Ops() {
  static const KernelOps ops = {
      MinSumAvx2,      MinAccumulateAvx2, SumAvx2,
      AndPopcountAvx2, AndCountAvx2,      PopcountAvx2,
  };
  return ops;
}

}  // namespace kernels
}  // namespace ossm

#endif  // defined(__AVX2__)

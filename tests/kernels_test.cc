#include "kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace ossm {
namespace kernels {
namespace {

// Sizes straddling every lane boundary: empty, sub-lane, exact multiples of
// the 4-wide AVX2 step and of the unrolled 4x4 block, one-off either side,
// and two larger runs.
const size_t kSizes[] = {0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100,
                        1000};

enum class Fill { kFullRange, kSmall, kZeroHeavy };

std::vector<uint64_t> MakeInput(Rng& rng, size_t n, Fill fill) {
  std::vector<uint64_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    switch (fill) {
      case Fill::kFullRange:
        v[i] = rng.Next();
        break;
      case Fill::kSmall:
        v[i] = rng.UniformInt(1000);
        break;
      case Fill::kZeroHeavy:
        v[i] = rng.Bernoulli(0.8) ? 0 : rng.Next();
        break;
    }
  }
  return v;
}

// Reference implementations, written as the plainest possible loops so the
// table under test (scalar included) is checked against independent code.
uint64_t RefMinSum(const std::vector<uint64_t>& a,
                   const std::vector<uint64_t>& b) {
  uint64_t total = 0;
  for (size_t i = 0; i < a.size(); ++i) total += std::min(a[i], b[i]);
  return total;
}

class KernelsDifferentialTest : public ::testing::TestWithParam<Isa> {};

// Every kernel at every supported level must agree bit-for-bit with the
// reference loops on every size and input shape — including full-range
// uint64 values that exercise the AVX2 sign-flip min and wrapping adds.
TEST_P(KernelsDifferentialTest, MatchesReferenceOnRandomInputs) {
  const KernelOps& ops = OpsFor(GetParam());
  Rng rng(0x5eed + static_cast<uint64_t>(GetParam()));
  for (size_t n : kSizes) {
    for (Fill fill : {Fill::kFullRange, Fill::kSmall, Fill::kZeroHeavy}) {
      std::vector<uint64_t> a = MakeInput(rng, n, fill);
      std::vector<uint64_t> b = MakeInput(rng, n, fill);

      EXPECT_EQ(ops.min_sum(a.data(), b.data(), n), RefMinSum(a, b));

      std::vector<uint64_t> acc = a;
      ops.min_accumulate(acc.data(), b.data(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(acc[i], std::min(a[i], b[i]));
      }

      uint64_t ref_sum = 0;
      for (uint64_t v : a) ref_sum += v;
      EXPECT_EQ(ops.sum(a.data(), n), ref_sum);

      uint64_t ref_and = 0;
      uint64_t ref_pop = 0;
      for (size_t i = 0; i < n; ++i) {
        ref_and += static_cast<uint64_t>(__builtin_popcountll(a[i] & b[i]));
        ref_pop += static_cast<uint64_t>(__builtin_popcountll(a[i]));
      }
      EXPECT_EQ(ops.and_popcount(a.data(), b.data(), n), ref_and);
      EXPECT_EQ(ops.popcount(a.data(), n), ref_pop);

      std::vector<uint64_t> words(n, 0);
      EXPECT_EQ(ops.and_count(a.data(), b.data(), words.data(), n), ref_and);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(words[i], a[i] & b[i]);
      }
      // Aliased form (out == a), as BitmapIndex's running intersection
      // uses it.
      std::vector<uint64_t> and_aliased = a;
      EXPECT_EQ(
          ops.and_count(and_aliased.data(), b.data(), and_aliased.data(), n),
          ref_and);
      EXPECT_EQ(and_aliased, words);
    }
  }
}

// Two supported levels must agree with each other on identical inputs (the
// cross-check the library's determinism story rests on).
TEST(KernelsTest, AllSupportedLevelsAgree) {
  std::vector<Isa> isas = SupportedIsas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), Isa::kScalar);
  Rng rng(99);
  std::vector<uint64_t> a = MakeInput(rng, 1000, Fill::kFullRange);
  std::vector<uint64_t> b = MakeInput(rng, 1000, Fill::kFullRange);
  const KernelOps& scalar = ScalarOps();
  for (Isa isa : isas) {
    const KernelOps& ops = OpsFor(isa);
    EXPECT_EQ(ops.min_sum(a.data(), b.data(), a.size()),
              scalar.min_sum(a.data(), b.data(), a.size()));
    EXPECT_EQ(ops.and_popcount(a.data(), b.data(), a.size()),
              scalar.and_popcount(a.data(), b.data(), a.size()));
  }
}

TEST(KernelsTest, ZeroLengthRunsAreSafeOnNullPointers) {
  for (Isa isa : SupportedIsas()) {
    const KernelOps& ops = OpsFor(isa);
    EXPECT_EQ(ops.min_sum(nullptr, nullptr, 0), 0u);
    EXPECT_EQ(ops.sum(nullptr, 0), 0u);
    EXPECT_EQ(ops.and_popcount(nullptr, nullptr, 0), 0u);
    EXPECT_EQ(ops.popcount(nullptr, 0), 0u);
    ops.min_accumulate(nullptr, nullptr, 0);
    EXPECT_EQ(ops.and_count(nullptr, nullptr, nullptr, 0), 0u);
  }
}

TEST(KernelsTest, ParseIsaSpec) {
  StatusOr<Isa> native = ParseIsaSpec("native");
  ASSERT_TRUE(native.ok());
  EXPECT_EQ(*native, SupportedIsas().back());

  StatusOr<Isa> empty = ParseIsaSpec("");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, *native);

  StatusOr<Isa> scalar = ParseIsaSpec("scalar");
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ(*scalar, Isa::kScalar);

  StatusOr<Isa> avx2 = ParseIsaSpec("avx2");
  ASSERT_TRUE(avx2.ok());
  EXPECT_EQ(*avx2, Isa::kAvx2);

  EXPECT_FALSE(ParseIsaSpec("sse9").ok());
  EXPECT_FALSE(ParseIsaSpec("AVX2").ok());
}

TEST(KernelsTest, IsaNamesRoundTrip) {
  for (Isa isa : SupportedIsas()) {
    StatusOr<Isa> parsed = ParseIsaSpec(IsaName(isa));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, isa);
  }
}

TEST(KernelsTest, ActiveIsaIsSupportedAndForceable) {
  Isa original = ActiveIsa();
  EXPECT_TRUE(IsaSupported(original));
  for (Isa isa : SupportedIsas()) {
    ForceIsa(isa);
    EXPECT_EQ(ActiveIsa(), isa);
    // The dispatched wrappers must route to the forced table.
    uint64_t a[3] = {5, 10, ~uint64_t{0}};
    uint64_t b[3] = {7, 2, 1};
    EXPECT_EQ(MinSumU64(a, b, 3), 5u + 2u + 1u);
  }
  ForceIsa(original);
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    AllIsas, KernelsDifferentialTest, ::testing::ValuesIn(SupportedIsas()),
    [](const ::testing::TestParamInfo<Isa>& info) {
      return std::string(IsaName(info.param));
    });

}  // namespace kernels
}  // namespace ossm

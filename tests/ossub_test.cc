#include "core/ossub.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "core/configuration.h"

namespace ossm {
namespace {

Segment MakeSegment(std::vector<uint64_t> counts) {
  Segment seg;
  seg.counts = std::move(counts);
  return seg;
}

// The positions a sum runs over: the bubble list as given (repeats and
// order taken as they come), or every item.
std::vector<ItemId> Positions(size_t m, const std::vector<ItemId>& bubble) {
  if (!bubble.empty()) return bubble;
  std::vector<ItemId> all(m);
  std::iota(all.begin(), all.end(), ItemId{0});
  return all;
}

// Equation (2) as the paper writes it: a loop over every pair of summed
// positions, merged bound minus kept bounds, in wrapping uint64_t
// arithmetic. The oracle the closed form must match bit for bit.
uint64_t ReferenceOssub(const std::vector<Segment>& segments,
                        const std::vector<ItemId>& bubble) {
  std::vector<ItemId> p = Positions(segments[0].counts.size(), bubble);
  uint64_t total = 0;
  for (size_t i = 0; i < p.size(); ++i) {
    for (size_t j = i + 1; j < p.size(); ++j) {
      uint64_t merged_x = 0;
      uint64_t merged_y = 0;
      uint64_t kept = 0;
      for (const Segment& seg : segments) {
        uint64_t cx = seg.counts[p[i]];
        uint64_t cy = seg.counts[p[j]];
        merged_x += cx;
        merged_y += cy;
        kept += std::min(cx, cy);
      }
      total += std::min(merged_x, merged_y) - kept;
    }
  }
  return total;
}

// S(v) by the same pair loop.
uint64_t ReferencePairMinSum(const std::vector<uint64_t>& v,
                             const std::vector<ItemId>& bubble) {
  std::vector<ItemId> p = Positions(v.size(), bubble);
  uint64_t total = 0;
  for (size_t i = 0; i < p.size(); ++i) {
    for (size_t j = i + 1; j < p.size(); ++j) {
      total += std::min(v[p[i]], v[p[j]]);
    }
  }
  return total;
}

enum class Fill { kSmall, kNearWrap, kMixed, kFullRange };

std::vector<uint64_t> RandomCounts(Rng& rng, size_t m, Fill fill) {
  std::vector<uint64_t> counts(m);
  for (uint64_t& c : counts) {
    switch (fill) {
      case Fill::kSmall:
        c = rng.UniformInt(30);
        break;
      case Fill::kNearWrap:  // merged counts wrap past 2^64
        c = UINT64_MAX - rng.UniformInt(100);
        break;
      case Fill::kMixed:
        c = rng.Bernoulli(0.5) ? rng.UniformInt(30)
                               : UINT64_MAX - rng.UniformInt(30);
        break;
      case Fill::kFullRange:
        c = rng.Next();
        break;
    }
  }
  return counts;
}

// No bubble; an unsorted subset; a list with repeated items.
std::vector<std::vector<ItemId>> Bubbles(Rng& rng, size_t m) {
  std::vector<std::vector<ItemId>> bubbles = {{}};
  if (m == 0) return bubbles;
  std::vector<ItemId> unsorted(m);
  std::iota(unsorted.begin(), unsorted.end(), ItemId{0});
  for (size_t i = m; i > 1; --i) {
    std::swap(unsorted[i - 1], unsorted[rng.UniformInt(i)]);
  }
  unsorted.resize((m + 1) / 2);
  bubbles.push_back(unsorted);
  std::vector<ItemId> repeated;
  for (size_t i = 0; i < m + 3; ++i) {
    repeated.push_back(static_cast<ItemId>(rng.UniformInt(m)));
  }
  bubbles.push_back(repeated);
  return bubbles;
}

// Every entry point of the closed form against the pair loop, on sizes
// 0, 1, 2 and up, four value ranges (two of which wrap), and three bubble
// shapes.
TEST(OssubTest, ClosedFormMatchesThePairLoop) {
  Rng rng(2002);
  for (size_t m : {0, 1, 2, 3, 7, 40}) {
    for (Fill fill :
         {Fill::kSmall, Fill::kNearWrap, Fill::kMixed, Fill::kFullRange}) {
      for (int trial = 0; trial < 5; ++trial) {
        std::vector<Segment> segs;
        for (int s = 0; s < 4; ++s) {
          segs.push_back(MakeSegment(RandomCounts(rng, m, fill)));
        }
        const std::vector<uint64_t>& a = segs[0].counts;
        const std::vector<uint64_t>& b = segs[1].counts;
        // `a` again, interleaved with junk, as a map column is strided.
        std::vector<uint64_t> interleaved(3 * m, 0xdead);
        for (size_t i = 0; i < m; ++i) interleaved[3 * i + 1] = a[i];
        StridedCounts strided{interleaved.data() + 1, 3, m};

        for (const std::vector<ItemId>& bubble : Bubbles(rng, m)) {
          SCOPED_TRACE(::testing::Message()
                       << "m=" << m << " fill=" << static_cast<int>(fill)
                       << " trial=" << trial << " bubble=" << bubble.size());
          EXPECT_EQ(PairMinSum(a, bubble), ReferencePairMinSum(a, bubble));
          std::vector<Segment> pair(segs.begin(), segs.begin() + 2);
          uint64_t expected = ReferenceOssub(pair, bubble);
          EXPECT_EQ(PairwiseOssub(a, b, bubble), expected);
          EXPECT_EQ(PairwiseOssub(strided, b, bubble), expected);
          EXPECT_EQ(PairwiseOssub(a, PairMinSum(a, bubble), b,
                                  PairMinSum(b, bubble), bubble),
                    expected);
          for (size_t k = 2; k <= segs.size(); ++k) {
            std::vector<Segment> first_k(segs.begin(), segs.begin() + k);
            EXPECT_EQ(Ossub(std::span<const Segment>(first_k), bubble),
                      ReferenceOssub(first_k, bubble))
                << "k=" << k;
          }
        }
      }
    }
  }
}

// Greedy and RC keep S per live segment and refresh it only for the segment
// a merge grows. Replays that bookkeeping over a run of merges and checks
// every cached evaluation against the pair loop.
TEST(OssubTest, CachedPairMinSumsStayExactAcrossMerges) {
  Rng rng(77);
  for (Fill fill : {Fill::kSmall, Fill::kMixed}) {
    for (const std::vector<ItemId>& bubble :
         {std::vector<ItemId>{}, std::vector<ItemId>{1, 4, 5, 9}}) {
      std::vector<Segment> live;
      std::vector<uint64_t> pair_mins;
      for (int s = 0; s < 8; ++s) {
        live.push_back(MakeSegment(RandomCounts(rng, 12, fill)));
        pair_mins.push_back(PairMinSum(live.back().counts, bubble));
      }
      while (live.size() > 1) {
        for (size_t x = 0; x < live.size(); ++x) {
          for (size_t y = x + 1; y < live.size(); ++y) {
            EXPECT_EQ(PairwiseOssub(live[x].counts, pair_mins[x],
                                    live[y].counts, pair_mins[y], bubble),
                      ReferenceOssub({live[x], live[y]}, bubble));
          }
        }
        size_t into = rng.UniformInt(live.size() - 1);
        MergeSegmentInto(live[into], std::move(live.back()));
        live.pop_back();
        pair_mins.pop_back();
        pair_mins[into] = PairMinSum(live[into].counts, bubble);
      }
    }
  }
}

TEST(OssubTest, ZeroForIdenticalConfigurations) {
  // Lemma 2(a): same configuration => no loss.
  Segment a = MakeSegment({10, 5, 1});
  Segment b = MakeSegment({100, 50, 10});
  EXPECT_EQ(PairwiseOssub(a, b), 0u);
}

TEST(OssubTest, PositiveForDifferingConfigurations) {
  // Lemma 2(b): differing configurations => strictly positive loss.
  Segment a = MakeSegment({10, 0});
  Segment b = MakeSegment({0, 10});
  // merged = (10, 10): min = 10; kept: min(10,0)+min(0,10) = 0.
  EXPECT_EQ(PairwiseOssub(a, b), 10u);
}

TEST(OssubTest, MatchesHandComputedExample) {
  // Example 2's "slightly different" segmentation: S1 = (3, 1), S2 = (1, 2)
  // gives bound min(4,3) = 3 merged vs min(3,1)+min(1,2) = 2 kept: loss 1.
  Segment a = MakeSegment({3, 1});
  Segment b = MakeSegment({1, 2});
  EXPECT_EQ(PairwiseOssub(a, b), 1u);
}

TEST(OssubTest, SymmetricInTheTwoSegments) {
  Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<uint64_t> x(5);
    std::vector<uint64_t> y(5);
    for (size_t i = 0; i < 5; ++i) {
      x[i] = rng.UniformInt(50);
      y[i] = rng.UniformInt(50);
    }
    Segment a = MakeSegment(x);
    Segment b = MakeSegment(y);
    EXPECT_EQ(PairwiseOssub(a, b), PairwiseOssub(b, a));
  }
}

TEST(OssubTest, AgreesWithGeneralFormOnPairs) {
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Segment> segs;
    segs.push_back(MakeSegment({}));
    segs.push_back(MakeSegment({}));
    for (Segment& s : segs) {
      s.counts.resize(6);
      for (auto& c : s.counts) c = rng.UniformInt(30);
    }
    EXPECT_EQ(PairwiseOssub(segs[0], segs[1]),
              Ossub(std::span<const Segment>(segs)));
  }
}

TEST(OssubTest, MonotoneUnderSupersets) {
  // Lemma 2(c): ossub(A) <= ossub(A') for A subset of A'.
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Segment> small;
    for (int s = 0; s < 2; ++s) {
      Segment seg;
      seg.counts.resize(4);
      for (auto& c : seg.counts) c = rng.UniformInt(20);
      small.push_back(std::move(seg));
    }
    std::vector<Segment> big = small;
    Segment extra;
    extra.counts.resize(4);
    for (auto& c : extra.counts) c = rng.UniformInt(20);
    big.push_back(std::move(extra));

    EXPECT_LE(Ossub(std::span<const Segment>(small)),
              Ossub(std::span<const Segment>(big)))
        << "trial " << trial;
  }
}

TEST(OssubTest, GeneralFormZeroIffAllSameConfiguration) {
  std::vector<Segment> same;
  same.push_back(MakeSegment({6, 3, 1}));
  same.push_back(MakeSegment({12, 6, 2}));
  same.push_back(MakeSegment({60, 30, 10}));
  EXPECT_EQ(Ossub(std::span<const Segment>(same)), 0u);

  std::vector<Segment> mixed = same;
  mixed.push_back(MakeSegment({1, 3, 6}));
  EXPECT_GT(Ossub(std::span<const Segment>(mixed)), 0u);
}

TEST(OssubTest, BubbleRestrictsTheSummation) {
  Segment a = MakeSegment({10, 0, 7, 7});
  Segment b = MakeSegment({0, 10, 7, 7});
  // Full loss: pair (0,1) contributes 10; pairs with items 2,3 contribute
  // more. Restricting to bubble {2, 3} sees only the zero-loss pair.
  std::vector<ItemId> bubble = {2, 3};
  EXPECT_EQ(PairwiseOssub(a, b, bubble), 0u);
  EXPECT_GT(PairwiseOssub(a, b), 0u);

  std::vector<ItemId> bubble01 = {0, 1};
  EXPECT_EQ(PairwiseOssub(a, b, bubble01), 10u);
}

TEST(OssubTest, NonNegativeAlways) {
  Rng rng(21);
  for (int trial = 0; trial < 200; ++trial) {
    Segment a = MakeSegment({});
    Segment b = MakeSegment({});
    a.counts.resize(8);
    b.counts.resize(8);
    for (size_t i = 0; i < 8; ++i) {
      a.counts[i] = rng.UniformInt(100);
      b.counts[i] = rng.UniformInt(100);
    }
    // uint64 result would wrap on a negative; recompute in signed space.
    uint64_t loss = PairwiseOssub(a, b);
    EXPECT_LT(loss, uint64_t{1} << 62) << "wrapped below zero";
  }
}

TEST(OssubTest, RandomizedZeroLossCharacterization) {
  // Lemma 2(a): equal configurations imply zero loss. The exact zero-loss
  // condition is slightly weaker in the presence of ties: the loss is zero
  // iff no item pair is ordered strictly oppositely in the two segments
  // (a tie on one side is compatible with either strict order on the
  // other). Both directions are checked here.
  Rng rng(33);
  int zero_count = 0;
  for (int trial = 0; trial < 500; ++trial) {
    Segment a = MakeSegment({});
    Segment b = MakeSegment({});
    a.counts.resize(3);
    b.counts.resize(3);
    for (size_t i = 0; i < 3; ++i) {
      a.counts[i] = rng.UniformInt(4);
      b.counts[i] = rng.UniformInt(4);
    }
    bool zero_loss = PairwiseOssub(a, b) == 0;
    bool same_config =
        SameConfiguration(std::span<const uint64_t>(a.counts),
                          std::span<const uint64_t>(b.counts));
    bool weakly_compatible = true;
    for (size_t x = 0; x < 3; ++x) {
      for (size_t y = x + 1; y < 3; ++y) {
        bool a_less = a.counts[x] < a.counts[y];
        bool a_greater = a.counts[x] > a.counts[y];
        bool b_less = b.counts[x] < b.counts[y];
        bool b_greater = b.counts[x] > b.counts[y];
        if ((a_less && b_greater) || (a_greater && b_less)) {
          weakly_compatible = false;
        }
      }
    }
    EXPECT_EQ(zero_loss, weakly_compatible) << "trial " << trial;
    if (same_config) {
      EXPECT_TRUE(zero_loss) << "trial " << trial;
    }
    zero_count += zero_loss ? 1 : 0;
  }
  // Sanity: both outcomes exercised.
  EXPECT_GT(zero_count, 0);
  EXPECT_LT(zero_count, 500);
}

}  // namespace
}  // namespace ossm

#include "mining/candidate_pruner.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/segment_support_map.h"

namespace ossm {
namespace {

SegmentSupportMap SmallMap() {
  std::vector<Segment> segments(2);
  segments[0].counts = {10, 0, 5};
  segments[1].counts = {0, 10, 5};
  return SegmentSupportMap::FromSegments(std::span<const Segment>(segments));
}

TEST(CandidatePrunerTest, AdmitsByUpperBound) {
  SegmentSupportMap map = SmallMap();
  OssmPruner pruner(&map);
  std::vector<ItemId> pair = {0, 1};   // bound 0: never co-frequent
  std::vector<ItemId> single = {2};    // bound 10
  EXPECT_FALSE(pruner.Evaluate(pair, 1).admitted);
  EXPECT_TRUE(pruner.Evaluate(single, 10).admitted);
  EXPECT_FALSE(pruner.Evaluate(single, 11).admitted);
}

}  // namespace
}  // namespace ossm

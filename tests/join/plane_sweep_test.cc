#include "join/plane_sweep.h"

#include <gtest/gtest.h>

#include "join/nested_loop.h"
#include "tests/test_util.h"

namespace swiftspatial {
namespace {

std::vector<ObjectId> AllIds(const Dataset& d) {
  std::vector<ObjectId> ids(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) ids[i] = static_cast<ObjectId>(i);
  return ids;
}

// `b` as written for a sweep along x, mirrored across the diagonal for a
// sweep along y, so one case covers both axes.
Box OnAxis(const Box& b, Axis axis) {
  if (axis == Axis::kX) return b;
  return Box(b.min_y, b.min_x, b.max_y, b.max_x);
}

JoinResult NestedLoop(const Dataset& r, const Dataset& s,
                      JoinStats* stats = nullptr) {
  JoinResult out;
  NestedLoopTileJoin(r, s, AllIds(r), AllIds(s), nullptr, &out, stats);
  return out;
}

// Every case runs with the sweep along x and along y.
class PlaneSweepTest : public ::testing::TestWithParam<Axis> {
 protected:
  JoinResult Sweep(const Dataset& r, const Dataset& s,
                   const Box* dedup_tile = nullptr,
                   JoinStats* stats = nullptr) const {
    JoinResult out;
    PlaneSweepTileJoin(r, s, AllIds(r), AllIds(s), GetParam(), dedup_tile,
                       &out, stats);
    return out;
  }

  void ExpectSameAsNestedLoop(const Dataset& r, const Dataset& s) const {
    JoinResult nl = NestedLoop(r, s);
    JoinResult ps = Sweep(r, s);
    EXPECT_TRUE(JoinResult::SameMultiset(nl, ps));
  }
};

TEST_P(PlaneSweepTest, MatchesNestedLoopUniform) {
  const Dataset r = testutil::Uniform(500, 40, 500.0, /*max_edge=*/15.0);
  const Dataset s = testutil::Uniform(500, 41, 500.0, /*max_edge=*/15.0);
  ExpectSameAsNestedLoop(r, s);
}

TEST_P(PlaneSweepTest, MatchesNestedLoopSkewed) {
  const Dataset r = testutil::Skewed(600, 42);
  const Dataset s = testutil::Skewed(600, 43);
  ExpectSameAsNestedLoop(r, s);
}

TEST_P(PlaneSweepTest, FewerChecksThanNestedLoopWhenSparse) {
  // Sparse unit squares: the sweep's active sets stay small, so it performs
  // far fewer comparisons than |R| x |S| -- the software rationale of §3.2.
  const Dataset r = testutil::Uniform(1000, 44, 5000.0, /*max_edge=*/1.0);
  const Dataset s = testutil::Uniform(1000, 45, 5000.0, /*max_edge=*/1.0);
  JoinStats nl_stats, ps_stats;
  JoinResult nl = NestedLoop(r, s, &nl_stats);
  JoinResult ps = Sweep(r, s, nullptr, &ps_stats);
  EXPECT_TRUE(JoinResult::SameMultiset(nl, ps));
  EXPECT_LT(ps_stats.predicate_evaluations,
            nl_stats.predicate_evaluations / 10);
}

TEST_P(PlaneSweepTest, EmptySides) {
  const Dataset r = testutil::Uniform(100, 46);
  const Dataset empty("e", {});
  EXPECT_TRUE(Sweep(r, empty).empty());
  EXPECT_TRUE(Sweep(empty, r).empty());
}

TEST_P(PlaneSweepTest, IdenticalMinTies) {
  // Many objects sharing their min on the sweep axis stress the tie-break
  // path.
  std::vector<Box> boxes;
  for (int i = 0; i < 20; ++i) {
    boxes.push_back(OnAxis(
        Box(10, static_cast<Coord>(i), 12, static_cast<Coord>(i + 2)),
        GetParam()));
  }
  const Dataset r("ties_r", boxes);
  const Dataset s("ties_s", boxes);
  ExpectSameAsNestedLoop(r, s);
}

TEST_P(PlaneSweepTest, DedupTileRuleApplied) {
  // The two tiles split the space along the sweep axis.
  const Dataset r = testutil::Uniform(300, 47, 200.0, /*max_edge=*/30.0);
  const Dataset s = testutil::Uniform(300, 48, 200.0, /*max_edge=*/30.0);
  const Box low_tile = OnAxis(Box(0, 0, 100, 200), GetParam());
  const Box high_tile = OnAxis(Box(100, 0, 200, 200), GetParam());
  JoinResult low = Sweep(r, s, &low_tile);
  JoinResult high = Sweep(r, s, &high_tile);
  // The two halves partition the results (every reference point lies in
  // exactly one tile).
  EXPECT_FALSE(low.empty());
  EXPECT_FALSE(high.empty());
  low.Merge(std::move(high));
  JoinResult whole = Sweep(r, s);
  EXPECT_TRUE(JoinResult::SameMultiset(whole, low));
}

TEST_P(PlaneSweepTest, PointDatasets) {
  const Dataset r = testutil::UniformPoints(400, 49, 100.0);
  const Dataset s = testutil::Uniform(400, 50, 100.0, /*max_edge=*/5.0);
  ExpectSameAsNestedLoop(r, s);
}

INSTANTIATE_TEST_SUITE_P(Axes, PlaneSweepTest,
                         ::testing::Values(Axis::kX, Axis::kY),
                         [](const ::testing::TestParamInfo<Axis>& info) {
                           return info.param == Axis::kX ? "SweepX"
                                                         : "SweepY";
                         });

}  // namespace
}  // namespace swiftspatial

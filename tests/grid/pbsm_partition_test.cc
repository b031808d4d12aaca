#include "grid/pbsm_partition.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace swiftspatial {
namespace {

TEST(PartitionStripes, StripesTileTheExtent) {
  const Dataset r = testutil::Uniform(500, 10);
  const Dataset s = testutil::Uniform(500, 11);
  const StripePartition p = PartitionStripes(r, s, 16, Axis::kX);
  ASSERT_EQ(p.stripes.size(), 16u);
  Box extent = r.Extent();
  extent.Expand(s.Extent());
  EXPECT_FLOAT_EQ(p.stripes.front().min_x, extent.min_x);
  // Edges touching the extent max are pushed open (closed-boundary dedup).
  EXPECT_GE(p.stripes.back().max_x, extent.max_x);
  for (std::size_t i = 1; i + 1 < p.stripes.size(); ++i) {
    EXPECT_FLOAT_EQ(p.stripes[i].min_x, p.stripes[i - 1].max_x);
  }
  EXPECT_FLOAT_EQ(p.stripes.back().min_x,
                  p.stripes[p.stripes.size() - 2].max_x);
}

class StripeAxisTest : public ::testing::TestWithParam<Axis> {};

TEST_P(StripeAxisTest, EveryObjectInItsOverlappingStripes) {
  const Axis axis = GetParam();
  const Dataset r = testutil::Uniform(800, 12, 1000.0, /*max_edge=*/50.0);
  const Dataset s = testutil::Uniform(800, 13, 1000.0, /*max_edge=*/50.0);
  const StripePartition p = PartitionStripes(r, s, 20, axis);

  auto check = [&p](const Dataset& d,
                    const std::vector<std::vector<ObjectId>>& parts) {
    std::vector<int> count(d.size(), 0);
    for (std::size_t i = 0; i < p.stripes.size(); ++i) {
      for (ObjectId id : parts[i]) {
        ++count[id];
        EXPECT_TRUE(Intersects(d.box(static_cast<std::size_t>(id)),
                               p.stripes[i]));
      }
    }
    for (std::size_t i = 0; i < d.size(); ++i) EXPECT_GE(count[i], 1) << i;
  };
  check(r, p.r_parts);
  check(s, p.s_parts);
}

// Parallel assignment must reproduce the one-thread partition exactly: the
// same stripes and, per stripe, the same ids in the same order.
void ExpectSameAtAnyThreadCount(const Dataset& r, const Dataset& s,
                                int num_partitions, Axis axis) {
  const StripePartition serial = PartitionStripes(r, s, num_partitions, axis);
  for (const std::size_t threads : {2u, 3u, 4u, 7u}) {
    SCOPED_TRACE(testing::Message()
                 << threads << " threads, " << num_partitions
                 << " stripes on axis " << (axis == Axis::kX ? "x" : "y"));
    const StripePartition parallel =
        PartitionStripes(r, s, num_partitions, axis, threads);
    EXPECT_EQ(parallel.axis, serial.axis);
    EXPECT_EQ(parallel.stripes, serial.stripes);
    EXPECT_EQ(parallel.r_parts, serial.r_parts);
    EXPECT_EQ(parallel.s_parts, serial.s_parts);
  }
}

TEST_P(StripeAxisTest, ParallelAssignmentMatchesSerialUniform) {
  const Dataset r = testutil::Uniform(20000, 16, 1000.0, /*max_edge=*/20.0);
  const Dataset s = testutil::Uniform(15000, 17, 1000.0, /*max_edge=*/20.0);
  ExpectSameAtAnyThreadCount(r, s, 64, GetParam());
  ExpectSameAtAnyThreadCount(r, s, 1024, GetParam());
}

TEST_P(StripeAxisTest, ParallelAssignmentMatchesSerialOnFloatRoundedEdges) {
  // Points exactly on stripe edges that are not float-representable (the
  // Pbsm.ObjectsOnFloatRoundedStripeEdges input).
  const Axis axis = GetParam();
  for (const int partitions : {7, 10, 13}) {
    std::vector<Box> boxes = {Box(0, 0, 0, 0), Box(1, 1, 1, 1)};
    const double width = 1.0 / partitions;
    for (int p = 1; p < partitions; ++p) {
      const Coord edge = static_cast<Coord>(p * width);
      boxes.push_back(axis == Axis::kX ? Box(edge, 0.5f, edge, 0.5f)
                                       : Box(0.5f, edge, 0.5f, edge));
    }
    const Dataset r("edges_r", std::vector<Box>(boxes));
    const Dataset s("edges_s", std::move(boxes));
    ExpectSameAtAnyThreadCount(r, s, partitions, axis);
  }
}

TEST_P(StripeAxisTest, ParallelAssignmentMatchesSerialOnCollidedEdges) {
  // Above 2^24 runs of stripe edges collapse onto one float (the
  // Pbsm.CollidedFloatStripeEdgesFarFromOrigin input).
  const Axis axis = GetParam();
  const Coord base = 16777216.0f;  // 2^24
  std::vector<Box> pts;
  for (int i = 0; i <= 4; ++i) {
    const Coord big = base + static_cast<Coord>(2 * i);
    const Coord small = static_cast<Coord>(i);
    pts.push_back(axis == Axis::kX ? Box(big, small, big, small)
                                   : Box(small, big, small, big));
  }
  const Dataset r("ulp_r", std::vector<Box>(pts));
  const Dataset s("ulp_s", std::move(pts));
  ExpectSameAtAnyThreadCount(r, s, 512, axis);
}

TEST(PartitionStripes, ParallelAssignmentWithFewerObjectsThanThreads) {
  const Dataset r("few_r", {Box(0, 0, 5, 5), Box(4, 4, 9, 9)});
  const Dataset s("few_s", {Box(1, 1, 2, 2), Box(3, 0, 8, 1), Box(6, 6, 6, 6)});
  const Dataset empty("empty", {});
  ExpectSameAtAnyThreadCount(r, s, 4, Axis::kX);
  ExpectSameAtAnyThreadCount(r, empty, 4, Axis::kY);
}

INSTANTIATE_TEST_SUITE_P(Axes, StripeAxisTest,
                         ::testing::Values(Axis::kX, Axis::kY));

TEST(PartitionStripes, WideObjectsSpanMultipleStripes) {
  Dataset r("wide", {Box(0, 0, 1000, 1)});
  Dataset s("narrow", {Box(500, 0, 501, 1)});
  const StripePartition p = PartitionStripes(r, s, 10, Axis::kX);
  int stripes_with_r = 0;
  for (const auto& part : p.r_parts) {
    if (!part.empty()) ++stripes_with_r;
  }
  EXPECT_EQ(stripes_with_r, 10);
}

TEST(PartitionStripes, SinglePartitionHoldsEverything) {
  const Dataset r = testutil::Uniform(200, 14);
  const Dataset s = testutil::Uniform(300, 15);
  const StripePartition p = PartitionStripes(r, s, 1, Axis::kX);
  EXPECT_EQ(p.r_parts[0].size(), 200u);
  EXPECT_EQ(p.s_parts[0].size(), 300u);
}

}  // namespace
}  // namespace swiftspatial

#include "rtree/bulk_load.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>
#include <tuple>

#include "common/rng.h"
#include "datagen/generator.h"
#include "tests/test_util.h"

namespace swiftspatial {
namespace {

enum class Loader { kStr, kHilbert };

PackedRTree Load(Loader loader, const Dataset& d, int max_entries,
                 std::size_t threads = 1) {
  BulkLoadOptions opt;
  opt.max_entries = max_entries;
  opt.num_threads = threads;
  return loader == Loader::kStr ? StrBulkLoad(d, opt) : HilbertBulkLoad(d, opt);
}

class BulkLoadTest
    : public ::testing::TestWithParam<std::tuple<Loader, int>> {};

TEST_P(BulkLoadTest, ValidTreeWithAllObjects) {
  const auto [loader, max_entries] = GetParam();
  const Dataset d = testutil::Uniform(3000, 13);
  const PackedRTree t = Load(loader, d, max_entries);
  ASSERT_TRUE(t.Validate().ok());
  EXPECT_EQ(t.num_objects(), d.size());
  EXPECT_EQ(t.max_entries(), max_entries);

  // Every object id appears exactly once across all leaves.
  std::vector<int> seen(d.size(), 0);
  for (std::size_t n = 0; n < t.num_nodes(); ++n) {
    const NodeView nv = t.node(static_cast<NodeIndex>(n));
    if (!nv.is_leaf()) continue;
    for (int e = 0; e < nv.count(); ++e) {
      const PackedEntry entry = nv.entry(e);
      ASSERT_GE(entry.id, 0);
      ASSERT_LT(static_cast<std::size_t>(entry.id), d.size());
      ++seen[entry.id];
      EXPECT_EQ(entry.box, d.box(static_cast<std::size_t>(entry.id)));
    }
  }
  for (std::size_t i = 0; i < d.size(); ++i) EXPECT_EQ(seen[i], 1) << i;
}

TEST_P(BulkLoadTest, WindowQueryCorrect) {
  const auto [loader, max_entries] = GetParam();
  const Dataset d = testutil::Skewed(2500, 14);
  const PackedRTree t = Load(loader, d, max_entries);
  Rng rng(15);
  for (int q = 0; q < 25; ++q) {
    const Coord x = static_cast<Coord>(rng.Uniform(0, 900));
    const Coord y = static_cast<Coord>(rng.Uniform(0, 900));
    const Box w(x, y, x + 60, y + 60);
    auto got = t.WindowQuery(w);
    std::sort(got.begin(), got.end());
    std::vector<ObjectId> expected;
    for (std::size_t i = 0; i < d.size(); ++i) {
      if (Intersects(d.box(i), w)) expected.push_back(static_cast<ObjectId>(i));
    }
    EXPECT_EQ(got, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LoadersAndNodeSizes, BulkLoadTest,
    ::testing::Combine(::testing::Values(Loader::kStr, Loader::kHilbert),
                       ::testing::Values(4, 8, 16, 32, 64)));

TEST(StrBulkLoad, TreeIndependentOfThreadCount) {
  const Dataset d = testutil::Uniform(50000, 16);
  const PackedRTree serial = Load(Loader::kStr, d, 16, 1);
  const PackedRTree parallel = Load(Loader::kStr, d, 16, 4);
  ASSERT_TRUE(parallel.Validate().ok());
  EXPECT_EQ(serial.num_nodes(), parallel.num_nodes());
  EXPECT_EQ(serial.height(), parallel.height());
  // Slab membership and the order inside each slab are fixed by total
  // (centre, id) orders, so the tree is a function of the input alone and
  // the thread count cannot change a single byte.
  EXPECT_EQ(serial.bytes(), parallel.bytes());
}

// Golden digests of the packed images, pinned at every thread count. Any
// change to slab boundaries, in-slab order, node balancing or the byte
// layout fails here: the STR and Hilbert trees must stay byte-identical to
// the ones these values were recorded from.

enum class Input { kUniformRects, kOsmPoints, kCoincident, kSignedZero };

const char* InputName(Input input) {
  switch (input) {
    case Input::kUniformRects: return "uniform-rects";
    case Input::kOsmPoints: return "osm-points";
    case Input::kCoincident: return "coincident";
    case Input::kSignedZero: return "signed-zero";
  }
  return "?";
}

Dataset MakeInput(Input input, uint64_t n) {
  switch (input) {
    case Input::kUniformRects:
      return testutil::Uniform(n, 41);
    case Input::kOsmPoints: {
      // Clustered points snapped to a unit grid, so many share a centre and
      // ties on either axis fall to the id.
      OsmLikeConfig cfg;
      cfg.map.map_size = 1000.0;
      cfg.count = n;
      cfg.num_clusters = 8;
      cfg.seed = 42;
      Dataset d = GenerateOsmLikePoints(cfg);
      for (Box& b : d.mutable_boxes()) {
        b = Box::FromPoint(Point{std::floor(b.min_x), std::floor(b.min_y)});
      }
      return d;
    }
    case Input::kCoincident:
      return Dataset("coincident",
                     std::vector<Box>(n, Box(1.0f, 2.0f, 3.0f, 4.0f)));
    case Input::kSignedZero: {
      // Centres of -0.0 and +0.0 compare equal, so the id decides.
      std::vector<Box> boxes;
      for (uint64_t i = 0; i < n; ++i) {
        const Coord s = static_cast<Coord>(i % 7);
        switch (i % 3) {
          case 0: boxes.emplace_back(-0.0f, -0.0f, -0.0f, -0.0f); break;
          case 1: boxes.emplace_back(0.0f, 0.0f, 0.0f, 0.0f); break;
          default: boxes.emplace_back(-s, -s, s, s); break;
        }
      }
      return Dataset("signed-zero", std::move(boxes));
    }
  }
  return Dataset();
}

// FNV-1a over the packed image, optionally continuing from `h`.
uint64_t Digest(const PackedRTree& t, uint64_t h = 14695981039346656037ull) {
  for (const uint8_t byte : t.bytes()) {
    h ^= byte;
    h *= 1099511628211ull;
  }
  return h;
}

constexpr uint64_t kSweepSizes[] = {1, 16, 17, 257, 4097};
constexpr std::size_t kThreadCounts[] = {1, 2, 3, 4, 7};

// One digest folded over every size in kSweepSizes, in order.
uint64_t SweepDigest(Loader loader, Input input, int max_entries,
                     std::size_t threads) {
  uint64_t h = 14695981039346656037ull;
  for (const uint64_t n : kSweepSizes) {
    h = Digest(Load(loader, MakeInput(input, n), max_entries, threads), h);
  }
  return h;
}

struct SweepGolden {
  Loader loader;
  Input input;
  int max_entries;
  uint64_t digest;
};

constexpr SweepGolden kSweepGoldens[] = {
    {Loader::kStr, Input::kUniformRects, 2, 0x71ab01c13759ed35ull},
    {Loader::kStr, Input::kUniformRects, 3, 0xab6a00584e431789ull},
    {Loader::kStr, Input::kUniformRects, 16, 0xf1c6999bb33f9ee6ull},
    {Loader::kStr, Input::kUniformRects, 64, 0x6d9f159ba6d732ddull},
    {Loader::kStr, Input::kOsmPoints, 2, 0x26e607a5b85fa05dull},
    {Loader::kStr, Input::kOsmPoints, 3, 0xa5d73a4acc8ef918ull},
    {Loader::kStr, Input::kOsmPoints, 16, 0x49f4e2089f545477ull},
    {Loader::kStr, Input::kOsmPoints, 64, 0xc1000cfb91f17375ull},
    {Loader::kStr, Input::kCoincident, 2, 0x1892c10b205179daull},
    {Loader::kStr, Input::kCoincident, 3, 0xe4e5ae8675933757ull},
    {Loader::kStr, Input::kCoincident, 16, 0x1e57af7e397133a3ull},
    {Loader::kStr, Input::kCoincident, 64, 0xcd68d91838746ce7ull},
    {Loader::kStr, Input::kSignedZero, 2, 0xb0a42e1320487067ull},
    {Loader::kStr, Input::kSignedZero, 3, 0x14e4e02c847eb1aeull},
    {Loader::kStr, Input::kSignedZero, 16, 0x1067fc60fa12854full},
    {Loader::kStr, Input::kSignedZero, 64, 0x08d8fb13c470b163ull},
    {Loader::kHilbert, Input::kUniformRects, 2, 0x8f3acd9ad51f5b76ull},
    {Loader::kHilbert, Input::kUniformRects, 3, 0x72ae74ff1ce92dfeull},
    {Loader::kHilbert, Input::kUniformRects, 16, 0x4588318b97cd194cull},
    {Loader::kHilbert, Input::kUniformRects, 64, 0xac5d50c4ee364909ull},
    {Loader::kHilbert, Input::kOsmPoints, 2, 0x3862ab9578a00235ull},
    {Loader::kHilbert, Input::kOsmPoints, 3, 0x37136bd8fc168ba5ull},
    {Loader::kHilbert, Input::kOsmPoints, 16, 0xfbc5d207ede3451aull},
    {Loader::kHilbert, Input::kOsmPoints, 64, 0xd3b471d84163e2ddull},
    {Loader::kHilbert, Input::kCoincident, 2, 0xb9b8bf9b5d66a181ull},
    {Loader::kHilbert, Input::kCoincident, 3, 0xd33b6a3a5c19e283ull},
    {Loader::kHilbert, Input::kCoincident, 16, 0xf338c42bf30aff58ull},
    {Loader::kHilbert, Input::kCoincident, 64, 0xe6f7b74865cab75aull},
    {Loader::kHilbert, Input::kSignedZero, 2, 0xe4174f1d0279da30ull},
    {Loader::kHilbert, Input::kSignedZero, 3, 0xbfff4a5f6651aefaull},
    {Loader::kHilbert, Input::kSignedZero, 16, 0xec477510368466fdull},
    {Loader::kHilbert, Input::kSignedZero, 64, 0xfa1efbf1063dbfc6ull},
};

TEST(BulkLoadGolden, SmallInputsMatchRecordedImages) {
  for (const SweepGolden& g : kSweepGoldens) {
    for (const std::size_t threads : kThreadCounts) {
      EXPECT_EQ(SweepDigest(g.loader, g.input, g.max_entries, threads),
                g.digest)
          << (g.loader == Loader::kStr ? "str " : "hilbert ")
          << InputName(g.input) << " max_entries=" << g.max_entries
          << " threads=" << threads;
    }
  }
}

struct LargeGolden {
  Loader loader;
  Input input;
  uint64_t digest;
};

constexpr LargeGolden kLargeGoldens[] = {
    {Loader::kStr, Input::kUniformRects, 0x74a0240cb2954cbdull},
    {Loader::kStr, Input::kOsmPoints, 0x720ebc6bc17ffa8aull},
    {Loader::kStr, Input::kCoincident, 0x8b1e32eda2238bf9ull},
    {Loader::kStr, Input::kSignedZero, 0x37744a6b6b6fea4dull},
    {Loader::kHilbert, Input::kUniformRects, 0x2c93b5fd6f7b303bull},
    {Loader::kHilbert, Input::kOsmPoints, 0xce101360a504de10ull},
    {Loader::kHilbert, Input::kCoincident, 0x76c1c71bc3c9e317ull},
    {Loader::kHilbert, Input::kSignedZero, 0xfa6a8d30077eadf7ull},
};

TEST(BulkLoadGolden, LargeInputsMatchRecordedImages) {
  for (const LargeGolden& g : kLargeGoldens) {
    const Dataset d = MakeInput(g.input, 50000);
    for (const std::size_t threads : kThreadCounts) {
      EXPECT_EQ(Digest(Load(g.loader, d, 16, threads)), g.digest)
          << (g.loader == Loader::kStr ? "str " : "hilbert ")
          << InputName(g.input) << " threads=" << threads;
    }
  }
}

TEST(StrBulkLoad, TinyDatasets) {
  for (uint64_t n : {1u, 2u, 3u, 5u, 16u, 17u}) {
    const Dataset d = testutil::Uniform(n, 100 + n);
    const PackedRTree t = Load(Loader::kStr, d, 16);
    ASSERT_TRUE(t.Validate().ok()) << "n=" << n;
    EXPECT_EQ(t.num_objects(), n);
    EXPECT_EQ(t.WindowQuery(d.Extent()).size(), n);
  }
}

TEST(HilbertBulkLoad, TinyDatasets) {
  for (uint64_t n : {1u, 2u, 16u, 33u}) {
    const Dataset d = testutil::Uniform(n, 200 + n);
    const PackedRTree t = Load(Loader::kHilbert, d, 16);
    ASSERT_TRUE(t.Validate().ok()) << "n=" << n;
    EXPECT_EQ(t.num_objects(), n);
  }
}

TEST(BulkLoad, HeightIsLogarithmic) {
  const Dataset d = testutil::Uniform(10000, 17);
  const PackedRTree t16 = Load(Loader::kStr, d, 16);
  // 10000 objects / fanout 16: leaves ~625, level2 ~40, level3 ~3, root.
  EXPECT_GE(t16.height(), 3);
  EXPECT_LE(t16.height(), 5);
  const PackedRTree t64 = Load(Loader::kStr, d, 64);
  EXPECT_LT(t64.height(), t16.height());
}

TEST(BulkLoad, NoUnderfilledNodes) {
  // Slabs are packed evenly: no node below half fill (except a lone root).
  const Dataset d = testutil::Uniform(4097, 18);
  const PackedRTree t = Load(Loader::kStr, d, 16);
  for (std::size_t n = 0; n < t.num_nodes(); ++n) {
    if (static_cast<NodeIndex>(n) == t.root()) continue;
    EXPECT_GE(t.node(static_cast<NodeIndex>(n)).count(), 8) << "node " << n;
  }
}

TEST(BulkLoad, StrQualityNotWorseThanHilbertByMuch) {
  // Structural sanity: both loaders should produce trees of the same height
  // for the same fanout and data.
  const Dataset d = testutil::Uniform(20000, 19);
  const PackedRTree str = Load(Loader::kStr, d, 16);
  const PackedRTree hil = Load(Loader::kHilbert, d, 16);
  EXPECT_EQ(str.height(), hil.height());
}

}  // namespace
}  // namespace swiftspatial

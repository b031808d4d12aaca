#include "rtree/bulk_load.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "geometry/hilbert.h"

namespace swiftspatial {

namespace {

// Below this many entries a level is selected, sorted and packed on the
// calling thread: starting threads would cost more than the work.
constexpr std::size_t kMinParallelEntries = 4096;

std::size_t ThreadsFor(std::size_t entries, std::size_t num_threads) {
  return entries < kMinParallelEntries ? 1
                                       : std::max<std::size_t>(1, num_threads);
}

// Sort keys: a 32-bit order key in the high half, the entry's index within
// its level in the low half. Entry ids grow with the index (object ids at
// the leaves, global node indices above), so ordering keys as integers is
// ordering entries by (key, id), a strict total order.
uint64_t SortKey(uint32_t order_key, std::size_t index) {
  return static_cast<uint64_t>(order_key) << 32 | index;
}

uint32_t IndexOf(uint64_t key) { return static_cast<uint32_t>(key); }

// STR's order key for one axis: the doubled centre lo + hi.
uint32_t CentreKey(Coord lo, Coord hi) { return OrderKey(lo + hi); }

// Reorders `keys` so that, for every position c in the ascending `cuts`,
// the keys before c are exactly the c smallest. Each piece between two cuts
// then holds a fixed set of keys in unspecified order. Recursive
// std::nth_element on the middle cut of each range; the ranges of one
// recursion depth are disjoint and run in parallel.
void SelectCuts(std::vector<uint64_t>* keys,
                const std::vector<std::size_t>& cuts,
                std::size_t num_threads) {
  if (cuts.empty()) return;
  struct Range {
    std::size_t lo, hi;          // keys [lo, hi)
    std::size_t cut_lo, cut_hi;  // cuts [cut_lo, cut_hi), all inside
  };
  std::vector<Range> round = {{0, keys->size(), 0, cuts.size()}};
  std::vector<Range> split;
  while (!round.empty()) {
    split.resize(2 * round.size());
    ParallelFor(round.size(), num_threads, Schedule::kDynamic,
                [&](std::size_t i) {
                  const Range& r = round[i];
                  const std::size_t mid = r.cut_lo + (r.cut_hi - r.cut_lo) / 2;
                  const std::size_t c = cuts[mid];
                  std::nth_element(keys->begin() + r.lo, keys->begin() + c,
                                   keys->begin() + r.hi);
                  split[2 * i] = {r.lo, c, r.cut_lo, mid};
                  split[2 * i + 1] = {c, r.hi, mid + 1, r.cut_hi};
                });
    round.clear();
    for (const Range& r : split) {
      if (r.cut_lo < r.cut_hi) round.push_back(r);
    }
  }
}

std::size_t NodesFor(std::size_t entries, std::size_t max_entries) {
  return (entries + max_entries - 1) / max_entries;
}

// A run of a level's entries packed into consecutive nodes.
struct Slab {
  std::size_t begin = 0;       // entries [begin, end)
  std::size_t end = 0;
  std::size_t first_node = 0;  // level-local index of the slab's first node
};

// The layout of one tree level, fixed before any entry is moved.
struct Level {
  std::vector<Slab> slabs;
  std::size_t num_nodes = 0;
  // STR tiling: slabs hold x-centre rank ranges and each is sorted by
  // y-centre. Otherwise the level is one slab packed in its given order.
  bool str_tiled = false;
};

Level PlanRun(std::size_t n, std::size_t max_entries) {
  Level level;
  level.slabs.push_back({0, n, 0});
  level.num_nodes = NodesFor(n, max_entries);
  return level;
}

// Leutenegger et al.'s tiling: ceil(sqrt(nodes)) vertical slabs of equal
// entry count. A level that fits in one node is left as a single run.
Level PlanStr(std::size_t n, std::size_t max_entries) {
  if (n <= max_entries) return PlanRun(n, max_entries);
  const std::size_t num_slabs = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(NodesFor(n, max_entries)))));
  const std::size_t slab_size = (n + num_slabs - 1) / num_slabs;
  Level level;
  level.str_tiled = true;
  for (std::size_t begin = 0; begin < n; begin += slab_size) {
    const std::size_t end = std::min(begin + slab_size, n);
    level.slabs.push_back({begin, end, level.num_nodes});
    level.num_nodes += NodesFor(end - begin, max_entries);
  }
  return level;
}

// One level's inputs and outputs while its slabs are packed.
struct LevelWriter {
  const Box* boxes;        // entry i is boxes[i] with id id_base + i
  const uint64_t* order;   // SortKeys in packing order; null = by index
  std::size_t id_base;
  bool is_leaf;
  std::size_t cap;         // max entries per node
  uint8_t* nodes;          // the image at the level's first node
  std::size_t stride;      // bytes per node
  Box* parents;            // node MBRs, by level-local node index

  // Packs `slab` into nodes of at most `cap` entries, spread as evenly as
  // possible (each node gets len/nodes or one more), so no node falls below
  // half of `cap` unless the whole tree has fewer entries.
  void Pack(const Slab& slab) const {
    const std::size_t n = slab.end - slab.begin;
    const std::size_t num_nodes = NodesFor(n, cap);
    const std::size_t base = n / num_nodes;
    const std::size_t rem = n % num_nodes;
    std::size_t pos = slab.begin;
    for (std::size_t k = 0; k < num_nodes; ++k) {
      const std::size_t take = base + (k < rem ? 1 : 0);
      const std::size_t local = slab.first_node + k;
      uint8_t* out = nodes + local * stride;
      const uint16_t count = static_cast<uint16_t>(take);
      std::memcpy(out, &count, sizeof(count));
      out[2] = is_leaf ? 1 : 0;
      Box mbr = Box::Empty();
      for (std::size_t e = 0; e < take; ++e, ++pos) {
        const std::size_t i = order != nullptr ? IndexOf(order[pos]) : pos;
        const PackedEntry entry{boxes[i], static_cast<int32_t>(id_base + i)};
        std::memcpy(out + 8 + e * sizeof(PackedEntry), &entry, sizeof(entry));
        mbr.Expand(entry.box);
      }
      parents[local] = mbr;
    }
  }
};

}  // namespace

// Builds a PackedRTree bottom-up straight into its final image. Every level
// is planned first, so the image is allocated once at its final size. Each
// level's slabs are then ordered and packed in parallel: nodes are written
// at their global indices, and each node's MBR becomes an entry of the
// level above as it is written. Orders are kept as SortKeys, so no entry is
// copied before it is written.
class BulkLoader {
 public:
  // `leaf_order`, if not empty, holds one SortKey per object in the order a
  // non-STR leaf level is packed; otherwise that level is packed by id.
  static PackedRTree Build(const std::vector<Box>& objects, bool str,
                           std::vector<uint64_t> leaf_order,
                           const BulkLoadOptions& options) {
    SWIFT_CHECK_GE(options.max_entries, 2);
    SWIFT_CHECK(!objects.empty());
    SWIFT_CHECK_LE(objects.size(), static_cast<std::size_t>(INT32_MAX));
    const std::size_t cap = static_cast<std::size_t>(options.max_entries);
    auto plan = [str, cap](std::size_t n) {
      return str ? PlanStr(n, cap) : PlanRun(n, cap);
    };
    std::vector<Level> levels = {plan(objects.size())};
    while (levels.back().num_nodes > 1) {
      levels.push_back(plan(levels.back().num_nodes));
    }

    PackedRTree tree;
    tree.max_entries_ = options.max_entries;
    tree.height_ = static_cast<int>(levels.size());
    tree.node_stride_ = PackedRTree::StrideFor(options.max_entries);
    tree.num_leaves_ = levels.front().num_nodes;
    tree.num_objects_ = objects.size();
    for (const Level& level : levels) tree.num_nodes_ += level.num_nodes;
    tree.root_ = static_cast<NodeIndex>(tree.num_nodes_ - 1);
    // Zero-filling the image is serial; with threads to spare it runs
    // beside the leaf level's selection, whose first rounds are serial too.
    // The buffer is reserved here so it comes from this thread's malloc
    // arena, not the helper's.
    const std::size_t image_size = tree.num_nodes_ * tree.node_stride_;
    tree.bytes_.reserve(image_size);
    std::future<void> image = std::async(
        ThreadsFor(objects.size(), options.num_threads) > 1
            ? std::launch::async
            : std::launch::deferred,
        [&tree, image_size] { tree.bytes_.assign(image_size, 0); });

    std::vector<uint64_t> order = std::move(leaf_order);
    std::vector<Box> below, parents;
    const Box* boxes = objects.data();
    std::size_t n = objects.size();
    std::size_t id_base = 0;     // id of the level's entry 0
    std::size_t level_base = 0;  // global index of the level's first node
    for (const Level& level : levels) {
      const std::size_t threads = ThreadsFor(n, options.num_threads);
      if (level.str_tiled) {
        order.resize(n);
        ParallelForRanges(
            n, threads, [&](std::size_t, std::size_t lo, std::size_t hi) {
              for (std::size_t i = lo; i < hi; ++i) {
                order[i] =
                    SortKey(CentreKey(boxes[i].min_x, boxes[i].max_x), i);
              }
            });
        std::vector<std::size_t> cuts;
        for (std::size_t s = 1; s < level.slabs.size(); ++s) {
          cuts.push_back(level.slabs[s].begin);
        }
        SelectCuts(&order, cuts, threads);
      }
      if (image.valid()) image.get();
      parents.resize(level.num_nodes);
      const LevelWriter writer{
          .boxes = boxes,
          .order = order.empty() ? nullptr : order.data(),
          .id_base = id_base,
          .is_leaf = level_base == 0,
          .cap = cap,
          .nodes = tree.bytes_.data() + level_base * tree.node_stride_,
          .stride = tree.node_stride_,
          .parents = parents.data()};
      ParallelFor(level.slabs.size(), threads, Schedule::kDynamic,
                  [&](std::size_t s) {
                    const Slab& slab = level.slabs[s];
                    if (level.str_tiled) {
                      // Re-key the slab by y-centre, in place.
                      for (std::size_t j = slab.begin; j < slab.end; ++j) {
                        const uint32_t i = IndexOf(order[j]);
                        order[j] = SortKey(
                            CentreKey(boxes[i].min_y, boxes[i].max_y), i);
                      }
                      std::sort(order.begin() + slab.begin,
                                order.begin() + slab.end);
                    }
                    writer.Pack(slab);
                  });
      // The level above packs its entries (these nodes) in node order
      // unless STR tiling re-orders them.
      order.clear();
      below.swap(parents);
      boxes = below.data();
      n = level.num_nodes;
      id_base = level_base;
      level_base += level.num_nodes;
    }
    return tree;
  }
};

PackedRTree StrBulkLoad(const Dataset& dataset,
                        const BulkLoadOptions& options) {
  return BulkLoader::Build(dataset.boxes(), /*str=*/true, {}, options);
}

PackedRTree HilbertBulkLoad(const Dataset& dataset,
                            const BulkLoadOptions& options) {
  SWIFT_CHECK(!dataset.empty());
  const Box extent = dataset.Extent();
  constexpr uint32_t kOrder = 16;  // 65536 x 65536 grid: 32-bit keys
  const double sx =
      extent.Width() > 0 ? ((1u << kOrder) - 1) / static_cast<double>(extent.Width())
                         : 0.0;
  const double sy =
      extent.Height() > 0
          ? ((1u << kOrder) - 1) / static_cast<double>(extent.Height())
          : 0.0;

  const std::size_t n = dataset.size();
  const std::size_t threads = ThreadsFor(n, options.num_threads);
  std::vector<uint64_t> order(n);
  ParallelForRanges(
      n, threads, [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const Point c = dataset.box(i).Center();
          const uint32_t gx = static_cast<uint32_t>(
              (static_cast<double>(c.x) - extent.min_x) * sx);
          const uint32_t gy = static_cast<uint32_t>(
              (static_cast<double>(c.y) - extent.min_y) * sy);
          order[i] = SortKey(
              static_cast<uint32_t>(HilbertD2XYInverse(kOrder, gx, gy)), i);
        }
      });
  // Sort: cut into one rank range per thread, then sort the ranges.
  std::vector<std::size_t> cuts;
  for (std::size_t t = 1; t < threads; ++t) cuts.push_back(n * t / threads);
  SelectCuts(&order, cuts, threads);
  ParallelForRanges(
      n, threads, [&](std::size_t, std::size_t lo, std::size_t hi) {
        std::sort(order.begin() + lo, order.begin() + hi);
      });
  return BulkLoader::Build(dataset.boxes(), /*str=*/false, std::move(order),
                           options);
}

}  // namespace swiftspatial

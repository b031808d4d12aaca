#include "grid/pbsm_partition.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "grid/edge_snap.h"

namespace swiftspatial {

namespace {

// Finds the stripes an object belongs in. The stripe index is estimated with
// double arithmetic and snapped to the stripes' float-rounded edges
// (grid/edge_snap.h) -- a fixed widening is not enough, because far from the
// origin MANY consecutive edges can collapse onto one float value and the
// owning stripe can be arbitrarily far from the double estimate.
class StripeLocator {
 public:
  StripeLocator(const std::vector<Box>& stripes, const Box& extent, Axis axis)
      : stripes_(stripes),
        axis_(axis),
        num_partitions_(static_cast<int>(stripes.size())),
        lo_(MinOn(extent, axis)),
        width_((static_cast<double>(MaxOn(extent, axis)) - lo_) /
               num_partitions_) {
    // Rounded stripe boundary k (0..num_partitions): the min edge of stripe
    // k and the max edge of stripe k-1, read from the boxes the stripes
    // actually carry (the last stripe's max is closed to +inf for dedup, so
    // boundary `num_partitions` is the extent max instead).
    edges_.reserve(stripes.size() + 1);
    for (const Box& stripe : stripes) edges_.push_back(MinOn(stripe, axis));
    edges_.push_back(MaxOn(extent, axis));
  }

  int num_partitions() const { return num_partitions_; }

  // Calls fn(p) for every stripe p whose box `b` intersects, in ascending p.
  template <typename Fn>
  void ForEachStripe(const Box& b, Fn fn) const {
    const Coord bmin = MinOn(b, axis_);
    const Coord bmax = MaxOn(b, axis_);
    // A zero-width axis collapses every stripe onto the same line; the
    // single LAST stripe is used by convention, matching CloseLastTile.
    int p0 = num_partitions_ - 1;
    int p1 = num_partitions_ - 1;
    if (width_ > 0) {
      p0 = std::clamp(static_cast<int>((bmin - lo_) / width_), 0,
                      num_partitions_ - 1);
      p1 = std::clamp(static_cast<int>((bmax - lo_) / width_), 0,
                      num_partitions_ - 1);
      SnapIndexRangeToEdges(
          bmin, bmax, num_partitions_, [this](int k) { return edges_[k]; },
          &p0, &p1);
    }
    for (int p = p0; p <= p1; ++p) {
      if (Intersects(b, stripes_[p])) fn(p);
    }
  }

 private:
  const std::vector<Box>& stripes_;
  Axis axis_;
  int num_partitions_;
  double lo_;
  double width_;
  std::vector<Coord> edges_;
};

// Workers for a pass over `n` objects: at most one per object.
std::size_t WorkersFor(std::size_t n, std::size_t num_threads) {
  return std::clamp<std::size_t>(num_threads, 1, std::max<std::size_t>(n, 1));
}

// Dataset::Extent on `num_threads` workers. Box::Expand skips NaN
// coordinates and keeps the first of equal values (-0.0 vs +0.0), and the
// per-range extents merge in range order, so the result is exactly the
// serial one.
Box ExtentOf(const Dataset& dataset, std::size_t num_threads) {
  const std::size_t workers = WorkersFor(dataset.size(), num_threads);
  std::vector<Box> partial(workers, Box::Empty());
  ParallelForRanges(dataset.size(), workers,
                    [&](std::size_t w, std::size_t lo, std::size_t hi) {
                      for (std::size_t i = lo; i < hi; ++i) {
                        partial[w].Expand(dataset.box(i));
                      }
                    });
  Box extent = Box::Empty();
  for (const Box& b : partial) extent.Expand(b);
  return extent;
}

// Assigns every object of `dataset` to the stripes it overlaps, on up to
// `num_threads` workers that each own one contiguous range of object ids, in
// three steps: each worker counts its objects per stripe; a prefix sum over
// the workers of each stripe gives every worker its first slot there; each
// worker scatters its ids into stripe lists that are already sized exactly.
// Worker w's ids land after those of the workers before it, so every list
// holds its ids in ascending order, exactly as one thread would write them.
void AssignToStripes(const Dataset& dataset, const StripeLocator& locator,
                     std::size_t num_threads,
                     std::vector<std::vector<ObjectId>>* parts) {
  const std::size_t n = dataset.size();
  const std::size_t workers = WorkersFor(n, num_threads);
  const auto stripes = static_cast<std::size_t>(locator.num_partitions());

  // slots[w * stripes + p]: worker w's object count in stripe p, then its
  // next write position there.
  std::vector<std::size_t> slots(workers * stripes, 0);
  ParallelForRanges(n, workers,
                    [&](std::size_t w, std::size_t lo, std::size_t hi) {
                      std::size_t* counts = &slots[w * stripes];
                      for (std::size_t i = lo; i < hi; ++i) {
                        locator.ForEachStripe(dataset.box(i),
                                              [counts](int p) { ++counts[p]; });
                      }
                    });
  // The lists are allocated on the calling thread: allocated on the workers,
  // they land in per-thread malloc arenas and peak RSS grows by up to twice
  // their size as the arenas fragment across calls.
  for (std::size_t p = 0; p < stripes; ++p) {
    std::size_t total = 0;
    for (std::size_t w = 0; w < workers; ++w) {
      const std::size_t count = slots[w * stripes + p];
      slots[w * stripes + p] = total;
      total += count;
    }
    (*parts)[p].resize(total);
  }
  ParallelForRanges(n, workers,
                    [&](std::size_t w, std::size_t lo, std::size_t hi) {
                      std::size_t* next = &slots[w * stripes];
                      for (std::size_t i = lo; i < hi; ++i) {
                        locator.ForEachStripe(dataset.box(i), [&](int p) {
                          (*parts)[p][next[p]++] = static_cast<ObjectId>(i);
                        });
                      }
                    });
}

}  // namespace

StripePartition PartitionStripes(const Dataset& r, const Dataset& s,
                                 int num_partitions, Axis axis,
                                 std::size_t num_threads) {
  SWIFT_CHECK_GE(num_partitions, 1);
  Box extent = ExtentOf(r, num_threads);
  extent.Expand(ExtentOf(s, num_threads));
  SWIFT_CHECK(!extent.IsEmpty());

  StripePartition out;
  out.axis = axis;
  out.stripes.reserve(num_partitions);
  const double lo = MinOn(extent, axis);
  const double hi = MaxOn(extent, axis);
  const double width = (hi - lo) / num_partitions;
  for (int p = 0; p < num_partitions; ++p) {
    const double a = lo + p * width;
    const double b = p + 1 == num_partitions ? hi : lo + (p + 1) * width;
    Box stripe;
    if (axis == Axis::kX) {
      stripe = Box(static_cast<Coord>(a), extent.min_y, static_cast<Coord>(b),
                   extent.max_y);
    } else {
      stripe = Box(extent.min_x, static_cast<Coord>(a), extent.max_x,
                   static_cast<Coord>(b));
    }
    // Stripes double as dedup tiles; keep the global boundary closed. Every
    // stripe is the last (only) tile along the non-partitioned axis.
    const bool last = p + 1 == num_partitions;
    out.stripes.push_back(CloseLastTile(stripe, axis == Axis::kX ? last : true,
                                        axis == Axis::kY ? last : true));
  }
  out.r_parts.resize(num_partitions);
  out.s_parts.resize(num_partitions);
  const StripeLocator locator(out.stripes, extent, axis);
  AssignToStripes(r, locator, num_threads, &out.r_parts);
  AssignToStripes(s, locator, num_threads, &out.s_parts);
  return out;
}

}  // namespace swiftspatial

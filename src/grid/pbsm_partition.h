// One-dimensional PBSM partitioning for the CPU baseline (§5.1): "we adopt
// the one-dimensional PBSM, which partitions the data in one dimension and
// sweeps the data in the other dimension" [69]. Objects are assigned to
// every stripe they overlap, by parallel workers that each own a contiguous
// range of object ids; join/pbsm.h then plane-sweeps each stripe along the
// non-partitioned axis and deduplicates with the reference-point rule.
#ifndef SWIFTSPATIAL_GRID_PBSM_PARTITION_H_
#define SWIFTSPATIAL_GRID_PBSM_PARTITION_H_

#include <cstddef>
#include <vector>

#include "datagen/dataset.h"
#include "geometry/box.h"

namespace swiftspatial {

/// Output of 1-D PBSM partitioning: per-stripe object id lists for both
/// inputs plus stripe geometry.
struct StripePartition {
  std::vector<Box> stripes;
  /// Per stripe, the ids of the objects overlapping it in ascending order.
  std::vector<std::vector<ObjectId>> r_parts;
  std::vector<std::vector<ObjectId>> s_parts;
  /// The axis the stripes divide (kX: vertical bands).
  Axis axis = Axis::kX;
};

/// Partitions datasets `r` and `s` into `num_partitions` equal-width stripes
/// along `axis` over the union of their extents, assigning objects on up to
/// `num_threads` threads. The result does not depend on `num_threads`.
StripePartition PartitionStripes(const Dataset& r, const Dataset& s,
                                 int num_partitions, Axis axis,
                                 std::size_t num_threads = 1);

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_GRID_PBSM_PARTITION_H_

// R-tree bulk loading (§2.2, §5.9):
//  * Sort-Tile-Recursive (STR, Leutenegger et al. [48]) -- what the paper's
//    index-construction experiment (Table 2) implements. Each level's
//    vertical slabs are placed by selection (recursive nth_element on the
//    x-centre order) rather than a full sort; the slabs are then sorted by
//    y-centre and packed in parallel.
//  * Hilbert packing (Kamel & Faloutsos [41]) -- sorts objects by the
//    Hilbert value of their MBR center and packs sequential runs.
//
// Both size the whole tree up front and write the nodes straight into the
// PackedRTree image, the flat layout consumed by the CPU join baselines and
// the simulated accelerator alike. The image depends only on the input and
// max_entries, never on num_threads.
#ifndef SWIFTSPATIAL_RTREE_BULK_LOAD_H_
#define SWIFTSPATIAL_RTREE_BULK_LOAD_H_

#include <cstddef>

#include "datagen/dataset.h"
#include "rtree/packed_rtree.h"

namespace swiftspatial {

struct BulkLoadOptions {
  /// Maximum entries per node (paper default 16, §5.2).
  int max_entries = 16;
  /// Worker threads for slab selection, sorting and packing.
  std::size_t num_threads = 1;
};

/// Bulk-loads `dataset` with Sort-Tile-Recursive. The same tiling is applied
/// recursively at each directory level.
PackedRTree StrBulkLoad(const Dataset& dataset, const BulkLoadOptions& options);

/// Bulk-loads `dataset` by Hilbert-curve ordering of MBR centers.
PackedRTree HilbertBulkLoad(const Dataset& dataset,
                            const BulkLoadOptions& options);

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_RTREE_BULK_LOAD_H_

// PackedRTree: an R-tree serialised into the flat, physically-addressed node
// layout the SwiftSpatial accelerator reads from DRAM (§3.5-3.6).
//
// Layout (little-endian):
//   node i occupies bytes [i * node_stride, (i+1) * node_stride)
//   node header (8 bytes): uint16 count | uint8 is_leaf | 5 bytes padding
//   followed by max_entries fixed 20-byte entries:
//     float32 min_x, min_y, max_x, max_y; int32 id
//   `id` is an object id in leaf nodes and a child node index in directory
//   nodes. node_stride is 8 + 20 * max_entries rounded up to 64 bytes (one
//   DDR4 burst).
//
// Both the CPU join baselines and the simulated accelerator traverse this
// same byte image, so algorithm comparisons are apples-to-apples.
#ifndef SWIFTSPATIAL_RTREE_PACKED_RTREE_H_
#define SWIFTSPATIAL_RTREE_PACKED_RTREE_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "datagen/dataset.h"
#include "geometry/box.h"

namespace swiftspatial {

/// One node entry: an MBR plus an object id (leaf) or child index
/// (directory). Exactly the accelerator's 20-byte DRAM format.
struct PackedEntry {
  Box box;
  int32_t id = 0;
};
static_assert(sizeof(PackedEntry) == 20, "entry must match the DRAM layout");

/// Node index within a PackedRTree.
using NodeIndex = int32_t;

class PackedRTree;
class BulkLoader;

/// Read-only view over one packed node. Cheap to copy; borrows the tree's
/// buffer.
class NodeView {
 public:
  uint16_t count() const;
  bool is_leaf() const;
  /// Entry i (i < count()).
  PackedEntry entry(int i) const;
  /// Union MBR of all entries.
  Box Mbr() const;

 private:
  friend class PackedRTree;
  explicit NodeView(const uint8_t* base) : base_(base) {}
  const uint8_t* base_;
};

/// Immutable packed R-tree (see file comment for the byte layout).
class PackedRTree {
 public:
  /// Node specification used during construction.
  struct BuildNode {
    bool is_leaf = true;
    std::vector<PackedEntry> entries;
  };

  /// Builds from levels ordered leaf-level first; `levels.back()` must hold
  /// exactly the root. Directory entries reference children by their index
  /// within the next-lower level; FromLevels rewrites them into global node
  /// indices.
  static PackedRTree FromLevels(std::vector<std::vector<BuildNode>> levels,
                                int max_entries);

  int max_entries() const { return max_entries_; }
  int height() const { return height_; }  ///< Levels; 1 = root is a leaf.
  NodeIndex root() const { return root_; }
  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_leaves() const { return num_leaves_; }
  std::size_t num_objects() const { return num_objects_; }
  std::size_t node_stride() const { return node_stride_; }

  /// Raw DRAM image (num_nodes * node_stride bytes).
  const std::vector<uint8_t>& bytes() const { return bytes_; }

  NodeView node(NodeIndex i) const {
    SWIFT_DCHECK(i >= 0 && static_cast<std::size_t>(i) < num_nodes_);
    return NodeView(bytes_.data() + static_cast<std::size_t>(i) * node_stride_);
  }

  /// Byte offset of node i within the image (the accelerator's node
  /// address, relative to the tree's base address).
  std::size_t NodeOffset(NodeIndex i) const {
    return static_cast<std::size_t>(i) * node_stride_;
  }

  /// All object ids whose MBR intersects `window`.
  std::vector<ObjectId> WindowQuery(const Box& window) const;

  /// Structural invariant check: entry counts within bounds, uniform leaf
  /// depth, directory MBRs containing child MBRs, every node reachable
  /// exactly once.
  Status Validate() const;

  /// Total number of objects referenced by leaves (recomputed).
  std::size_t CountObjects() const;

  /// Node stride in bytes for a given fan-out (shared with MemoryLayout).
  static std::size_t StrideFor(int max_entries) {
    const std::size_t raw = 8 + 20 * static_cast<std::size_t>(max_entries);
    return (raw + 63) / 64 * 64;
  }

 private:
  // The STR and Hilbert bulk loaders (bulk_load.cc) write the image in place.
  friend class BulkLoader;

  PackedRTree() = default;

  int max_entries_ = 0;
  int height_ = 0;
  NodeIndex root_ = 0;
  std::size_t num_nodes_ = 0;
  std::size_t num_leaves_ = 0;
  std::size_t num_objects_ = 0;
  std::size_t node_stride_ = 0;
  std::vector<uint8_t> bytes_;
};

inline uint16_t NodeView::count() const {
  uint16_t v;
  std::memcpy(&v, base_, sizeof(v));
  return v;
}

inline bool NodeView::is_leaf() const { return base_[2] != 0; }

inline PackedEntry NodeView::entry(int i) const {
  PackedEntry e;
  std::memcpy(&e, base_ + 8 + static_cast<std::size_t>(i) * sizeof(PackedEntry),
              sizeof(e));
  return e;
}

inline Box NodeView::Mbr() const {
  Box out = Box::Empty();
  const int n = count();
  for (int i = 0; i < n; ++i) out.Expand(entry(i).box);
  return out;
}

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_RTREE_PACKED_RTREE_H_

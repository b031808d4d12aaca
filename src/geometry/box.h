// Axis-aligned minimum bounding rectangle (MBR) and the spatial predicates
// the filtering phase evaluates. The Intersects test is the exact four-way
// boundary comparison the SwiftSpatial join unit implements in hardware
// (r.right >= s.left && s.right >= r.left && r.top >= s.bottom &&
//  s.top >= r.bottom, Fig. 3 of the paper).
#ifndef SWIFTSPATIAL_GEOMETRY_BOX_H_
#define SWIFTSPATIAL_GEOMETRY_BOX_H_

#include <algorithm>
#include <limits>
#include <string>

#include "geometry/point.h"

namespace swiftspatial {

/// Axis-aligned rectangle [min_x, max_x] x [min_y, max_y] with closed
/// boundaries (objects touching at an edge intersect).
struct Box {
  Coord min_x = 0;
  Coord min_y = 0;
  Coord max_x = 0;
  Coord max_y = 0;

  Box() = default;
  Box(Coord mnx, Coord mny, Coord mxx, Coord mxy)
      : min_x(mnx), min_y(mny), max_x(mxx), max_y(mxy) {}

  /// Degenerate box representing a single point.
  static Box FromPoint(const Point& p) { return Box(p.x, p.y, p.x, p.y); }

  /// An "empty" box that is the identity for Expand().
  static Box Empty() {
    constexpr Coord kInf = std::numeric_limits<Coord>::infinity();
    return Box(kInf, kInf, -kInf, -kInf);
  }

  bool IsEmpty() const { return min_x > max_x || min_y > max_y; }

  Coord Width() const { return max_x - min_x; }
  Coord Height() const { return max_y - min_y; }
  double Area() const {
    if (IsEmpty()) return 0.0;
    return static_cast<double>(Width()) * Height();
  }
  double Perimeter() const {
    if (IsEmpty()) return 0.0;
    return 2.0 * (static_cast<double>(Width()) + Height());
  }
  Point Center() const {
    return Point{static_cast<Coord>((min_x + max_x) / 2),
                 static_cast<Coord>((min_y + max_y) / 2)};
  }

  /// Grows this box to cover `other`.
  void Expand(const Box& other) {
    min_x = std::min(min_x, other.min_x);
    min_y = std::min(min_y, other.min_y);
    max_x = std::max(max_x, other.max_x);
    max_y = std::max(max_y, other.max_y);
  }

  /// Area increase if this box were expanded to cover `other`.
  double Enlargement(const Box& other) const {
    Box merged = *this;
    merged.Expand(other);
    return merged.Area() - Area();
  }

  std::string ToString() const {
    return "[" + std::to_string(min_x) + "," + std::to_string(min_y) + " - " +
           std::to_string(max_x) + "," + std::to_string(max_y) + "]";
  }

  friend bool operator==(const Box& a, const Box& b) {
    return a.min_x == b.min_x && a.min_y == b.min_y && a.max_x == b.max_x &&
           a.max_y == b.max_y;
  }
};

/// A coordinate axis: PBSM's stripe axis and the plane sweep's sweep axis.
enum class Axis { kX, kY };

/// The axis orthogonal to `axis`.
constexpr Axis OtherAxis(Axis axis) {
  return axis == Axis::kX ? Axis::kY : Axis::kX;
}

/// The box's lower and upper bound along `axis`.
inline Coord MinOn(const Box& b, Axis axis) {
  return axis == Axis::kX ? b.min_x : b.min_y;
}
inline Coord MaxOn(const Box& b, Axis axis) {
  return axis == Axis::kX ? b.max_x : b.max_y;
}

/// MBR intersection test: the predicate evaluated by the hardware join unit.
inline bool Intersects(const Box& r, const Box& s) {
  return r.max_x >= s.min_x && s.max_x >= r.min_x && r.max_y >= s.min_y &&
         s.max_y >= r.min_y;
}

/// True iff `outer` fully contains `inner` (closed boundaries).
inline bool Contains(const Box& outer, const Box& inner) {
  return outer.min_x <= inner.min_x && outer.max_x >= inner.max_x &&
         outer.min_y <= inner.min_y && outer.max_y >= inner.max_y;
}

/// True iff the point lies inside or on the boundary of `b`.
inline bool ContainsPoint(const Box& b, const Point& p) {
  return b.min_x <= p.x && p.x <= b.max_x && b.min_y <= p.y && p.y <= b.max_y;
}

/// Intersection rectangle of two boxes (empty box if disjoint).
inline Box Intersection(const Box& r, const Box& s) {
  Box out(std::max(r.min_x, s.min_x), std::max(r.min_y, s.min_y),
          std::min(r.max_x, s.max_x), std::min(r.max_y, s.max_y));
  return out;
}

/// PBSM duplicate-avoidance rule (Dittrich & Seeger [20], §2.3 of the paper):
/// a qualifying pair is reported by a tile only if the reference point of the
/// intersection region -- its bottom-left corner -- lies inside the tile.
/// Every intersecting pair has exactly one such tile, so each result is
/// emitted exactly once across all tiles.
inline bool ReferencePointInTile(const Box& r, const Box& s, const Box& tile) {
  const Box ix = Intersection(r, s);
  // The reference corner lies on tile boundaries when objects straddle tile
  // edges; the half-open test below assigns it to exactly one tile.
  return ix.min_x >= tile.min_x && ix.min_x < tile.max_x &&
         ix.min_y >= tile.min_y && ix.min_y < tile.max_y;
}

/// Prepares a tile for use with ReferencePointInTile: the max edge of the
/// last tile along each axis is pushed to +infinity, because the half-open
/// rule would otherwise drop pairs whose reference point sits exactly on the
/// global boundary (no tile to the right/above exists to claim them). The
/// caller states which tile is last (partitioners know their structure);
/// deciding by comparing coordinates against the extent max instead would
/// open EVERY tile whose float-rounded max edge collides with the extent max
/// -- overlapping half-open ranges that double-claim pairs.
inline Box CloseLastTile(Box tile, bool last_x, bool last_y) {
  constexpr Coord kInf = std::numeric_limits<Coord>::infinity();
  if (last_x) tile.max_x = kInf;
  if (last_y) tile.max_y = kInf;
  return tile;
}

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_GEOMETRY_BOX_H_

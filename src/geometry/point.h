// 2-D point type. SwiftSpatial stores coordinates as 32-bit floats, matching
// the accelerator's 20-byte node entry layout (4 x float32 MBR + int32 id).
#ifndef SWIFTSPATIAL_GEOMETRY_POINT_H_
#define SWIFTSPATIAL_GEOMETRY_POINT_H_

#include <bit>
#include <cmath>
#include <cstdint>

namespace swiftspatial {

/// Coordinate type used throughout the library (see file comment).
using Coord = float;

/// A point in the plane.
struct Point {
  Coord x = 0;
  Coord y = 0;

  friend bool operator==(const Point& a, const Point& b) {
    return a.x == b.x && a.y == b.y;
  }
};

/// Maps a coordinate onto an unsigned integer with the same order: for
/// non-NaN a and b, a < b iff OrderKey(a) < OrderKey(b). -0.0 and +0.0
/// compare equal as floats, so both map to the key of +0.0. Sorting keys as
/// integers is then sorting coordinates.
inline uint32_t OrderKey(Coord v) {
  if (v == 0) v = 0;
  const uint32_t bits = std::bit_cast<uint32_t>(v);
  return (bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u;
}

/// Euclidean distance between two points.
inline double Distance(const Point& a, const Point& b) {
  const double dx = static_cast<double>(a.x) - b.x;
  const double dy = static_cast<double>(a.y) - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

/// Signed twice-area of triangle (a, b, c): > 0 if counter-clockwise.
inline double Cross(const Point& a, const Point& b, const Point& c) {
  return (static_cast<double>(b.x) - a.x) * (static_cast<double>(c.y) - a.y) -
         (static_cast<double>(b.y) - a.y) * (static_cast<double>(c.x) - a.x);
}

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_GEOMETRY_POINT_H_

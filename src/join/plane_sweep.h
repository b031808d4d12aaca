// Plane-sweep tile join (Algorithm 4 of the paper): sorts both inputs along
// the sweep axis, moves a sweep line across it, and compares each arriving
// object only against the opposite active set. PBSM sweeps along its stripes
// (the axis it does not partition on); grid cells, the standalone
// `plane_sweep` engine and the nested-loop-vs-plane-sweep study (Fig. 14)
// sweep along x.
#ifndef SWIFTSPATIAL_JOIN_PLANE_SWEEP_H_
#define SWIFTSPATIAL_JOIN_PLANE_SWEEP_H_

#include <vector>

#include "datagen/dataset.h"
#include "geometry/box.h"
#include "join/result.h"

namespace swiftspatial {

/// Joins the objects listed in `r_ids` x `s_ids` by plane sweep along
/// `sweep_axis`: objects enter in order of their min on that axis, leave the
/// active set once their max on it falls behind the sweep line, and only the
/// other axis is tested against the active set. `dedup_tile`, when non-null,
/// applies the PBSM reference-point rule. `stats->predicate_evaluations`
/// counts those other-axis overlap checks (the sweep's analogue of the NL
/// predicate count).
void PlaneSweepTileJoin(const Dataset& r, const Dataset& s,
                        const std::vector<ObjectId>& r_ids,
                        const std::vector<ObjectId>& s_ids, Axis sweep_axis,
                        const Box* dedup_tile, JoinResult* out,
                        JoinStats* stats = nullptr);

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_JOIN_PLANE_SWEEP_H_

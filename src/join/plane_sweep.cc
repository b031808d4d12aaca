#include "join/plane_sweep.h"

#include <algorithm>
#include <cstdint>

namespace swiftspatial {

namespace {

// An object's box copied next to its id, so that the sweep reads both
// sides from contiguous arrays instead of gathering from the datasets.
struct Entry {
  Box box;
  ObjectId id;
};

// One dataset's sweep state along axis `A`: its objects sorted by their min
// on `A` plus the active set of objects whose extent still crosses the
// sweep line.
template <Axis A>
struct SweepSide {
  std::vector<Entry> sorted;  // by ascending (min on A, id)
  std::vector<Entry> active;
  std::size_t cursor = 0;

  // Sorts (min on A, id) as one 64-bit integer key per object.
  SweepSide(const Dataset& dataset, const std::vector<ObjectId>& ids) {
    std::vector<uint64_t> keys(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const Box& b = dataset.box(static_cast<std::size_t>(ids[i]));
      keys[i] = static_cast<uint64_t>(OrderKey(MinOn(b, A))) << 32 |
                static_cast<uint32_t>(ids[i]);
    }
    std::sort(keys.begin(), keys.end());
    sorted.resize(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto id = static_cast<ObjectId>(static_cast<uint32_t>(keys[i]));
      sorted[i] = {dataset.box(static_cast<std::size_t>(id)), id};
    }
  }

  bool Exhausted() const { return cursor >= sorted.size(); }
  Coord FrontMin() const { return MinOn(sorted[cursor].box, A); }

  // Drops active objects that ended before the sweep line (max on A < line).
  void RemoveInactive(Coord line) {
    std::size_t i = 0;
    while (i < active.size()) {
      if (MaxOn(active[i].box, A) < line) {
        active[i] = active.back();
        active.pop_back();
      } else {
        ++i;
      }
    }
  }
};

template <Axis A>
void Sweep(const Dataset& r, const Dataset& s,
           const std::vector<ObjectId>& r_ids,
           const std::vector<ObjectId>& s_ids, const Box* dedup_tile,
           JoinResult* out, JoinStats* stats) {
  constexpr Axis kOther = OtherAxis(A);
  SweepSide<A> rs(r, r_ids);
  SweepSide<A> ss(s, s_ids);

  uint64_t checks = 0;
  while (!rs.Exhausted() || !ss.Exhausted()) {
    const bool take_r =
        ss.Exhausted() || (!rs.Exhausted() && rs.FrontMin() <= ss.FrontMin());
    SweepSide<A>& cur = take_r ? rs : ss;
    SweepSide<A>& opp = take_r ? ss : rs;

    const Entry& e = cur.sorted[cur.cursor++];
    cur.active.push_back(e);
    opp.RemoveInactive(MinOn(e.box, A));
    for (const Entry& o : opp.active) {
      ++checks;
      // Overlap on A is implied: o's min <= e's min (insertion order) and
      // o's max >= e's min (RemoveInactive); only the other axis is tested.
      if (MaxOn(e.box, kOther) >= MinOn(o.box, kOther) &&
          MaxOn(o.box, kOther) >= MinOn(e.box, kOther)) {
        const Entry& re = take_r ? e : o;
        const Entry& se = take_r ? o : e;
        if (dedup_tile != nullptr &&
            !ReferencePointInTile(re.box, se.box, *dedup_tile)) {
          continue;
        }
        out->Add(re.id, se.id);
      }
    }
  }
  if (stats != nullptr) {
    stats->predicate_evaluations += checks;
    stats->tasks += 1;
  }
}

}  // namespace

void PlaneSweepTileJoin(const Dataset& r, const Dataset& s,
                        const std::vector<ObjectId>& r_ids,
                        const std::vector<ObjectId>& s_ids, Axis sweep_axis,
                        const Box* dedup_tile, JoinResult* out,
                        JoinStats* stats) {
  if (sweep_axis == Axis::kX) {
    Sweep<Axis::kX>(r, s, r_ids, s_ids, dedup_tile, out, stats);
  } else {
    Sweep<Axis::kY>(r, s, r_ids, s_ids, dedup_tile, out, stats);
  }
}

}  // namespace swiftspatial

#include "join/partitioned_driver.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/sync.h"
#include "common/thread_pool.h"
#include "grid/uniform_grid.h"

namespace swiftspatial {

int AutoGridSide(std::size_t total_objects,
                 std::size_t target_cell_population) {
  const double total = static_cast<double>(total_objects);
  const double cells =
      std::max(1.0, total / static_cast<double>(target_cell_population));
  const int side = static_cast<int>(std::ceil(std::sqrt(cells)));
  return std::clamp(side, 1, 1024);
}

PartitionedDriver::PartitionedDriver(PartitionedDriverOptions options)
    : options_(std::move(options)) {}

Status ValidateGridConfig(int grid_cols, int grid_rows) {
  if (grid_cols < 0 || grid_rows < 0) {
    return Status::InvalidArgument("grid dimensions must be >= 0 (0 = auto)");
  }
  // Cap explicit grids so cols * rows cannot overflow int (and absurd cell
  // counts fail fast instead of exhausting memory).
  constexpr int kMaxGridSide = 1 << 14;
  if (grid_cols > kMaxGridSide || grid_rows > kMaxGridSide) {
    return Status::InvalidArgument("grid dimensions must be <= 16384");
  }
  if ((grid_cols == 0) != (grid_rows == 0)) {
    return Status::InvalidArgument(
        "grid_cols and grid_rows must both be set or both be auto (0)");
  }
  return Status::OK();
}

JoinGridSpec DeriveJoinGrid(const Dataset& r, const Dataset& s, int grid_cols,
                            int grid_rows,
                            std::size_t target_cell_population) {
  JoinGridSpec spec;
  // Disjoint or empty inputs produce no grid; callers short-circuit to the
  // empty result.
  if (r.empty() || s.empty()) return spec;
  Box extent = r.Extent();
  extent.Expand(s.Extent());
  if (extent.IsEmpty()) return spec;
  spec.has_grid = true;
  spec.extent = extent;
  if (grid_cols > 0) {
    spec.cols = grid_cols;
    spec.rows = grid_rows;
  } else {
    spec.cols = spec.rows =
        AutoGridSide(r.size() + s.size(), target_cell_population);
  }
  return spec;
}

std::size_t PartitionedPlanState::MemoryBytes() const {
  std::size_t bytes = sizeof(*this) + cells.capacity() * sizeof(cells[0]);
  for (const PartitionedCell& cell : cells) {
    bytes += (cell.r_ids.capacity() + cell.s_ids.capacity()) *
             sizeof(ObjectId);
  }
  return bytes;
}

std::vector<PartitionedCell> AssignGridCells(const Dataset& r,
                                             const Dataset& s,
                                             const JoinGridSpec& spec) {
  const UniformGrid grid(spec.extent, spec.cols, spec.rows);
  std::vector<std::vector<ObjectId>> r_cells = grid.Assign(r);
  std::vector<std::vector<ObjectId>> s_cells = grid.Assign(s);

  std::vector<PartitionedCell> cells;
  for (int t = 0; t < grid.num_tiles(); ++t) {
    if (r_cells[t].empty() || s_cells[t].empty()) continue;
    PartitionedCell cell;
    cell.tile = t;
    // Closing the last row/column of cells keeps reference points that land
    // exactly on the global boundary claimable (no cell beyond exists).
    cell.dedup_tile = grid.DedupTileByIndex(t);
    cell.r_ids = std::move(r_cells[t]);
    cell.s_ids = std::move(s_cells[t]);
    cells.push_back(std::move(cell));
  }
  return cells;
}

Result<std::shared_ptr<const PartitionedPlanState>> PlanPartitionedCells(
    const Dataset& r, const Dataset& s,
    const PartitionedDriverOptions& options) {
  if (options.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  SWIFT_RETURN_IF_ERROR(
      ValidateGridConfig(options.grid_cols, options.grid_rows));
  if (options.grid_cols == 0 && options.target_cell_population == 0) {
    return Status::InvalidArgument(
        "target_cell_population must be >= 1 for auto grid sizing");
  }

  auto plan = std::make_shared<PartitionedPlanState>();
  const JoinGridSpec spec =
      DeriveJoinGrid(r, s, options.grid_cols, options.grid_rows,
                     options.target_cell_population);
  if (!spec.has_grid) {
    return std::shared_ptr<const PartitionedPlanState>(std::move(plan));
  }
  plan->cols = spec.cols;
  plan->rows = spec.rows;
  plan->cells = AssignGridCells(r, s, spec);
  // Largest batches first: under dynamic scheduling the expensive cells
  // start early and the small ones backfill, tightening the makespan.
  std::sort(plan->cells.begin(), plan->cells.end(),
            [](const PartitionedCell& a, const PartitionedCell& b) {
              return a.r_ids.size() * a.s_ids.size() >
                     b.r_ids.size() * b.s_ids.size();
            });
  return std::shared_ptr<const PartitionedPlanState>(std::move(plan));
}

JoinResult ExecutePartitionedPlan(const PartitionedPlanState& plan,
                                  const Dataset& r, const Dataset& s,
                                  TileJoin tile_join, std::size_t num_threads,
                                  JoinStats* stats, const ResultSink* sink,
                                  exec::CancellationToken cancel,
                                  obs::ResourceAccumulator* usage,
                                  obs::TraceContext trace) {
  JoinResult merged;
  if (plan.cells.empty()) return merged;

  // Cell joins can be tiny (sparse grids), so cells are batched into
  // strided groups -- group g joins cells g, g+G, g+2G, ... which keeps the
  // largest-first ordering balanced across groups -- to amortise the
  // per-task dispatch cost. Each worker appends into its own accumulator
  // (no shared state, no locks while joining). The resulting multiset is
  // independent of thread count and interleaving; only pair order varies
  // (canonicalise with JoinResult::Sort).
  const std::size_t workers = std::max<std::size_t>(1, num_threads);
  const std::size_t groups =
      std::min(plan.cells.size(), workers * kCellTaskGroupsPerWorker);
  std::vector<JoinResult> local_results(workers);
  std::vector<JoinStats> local_stats(workers);
  // The ResultSink contract forbids concurrent calls; the lock also makes a
  // sink that blocks (stream backpressure) hold back every flushing worker.
  Mutex sink_mu;
  const auto run_group = [&](std::size_t g, std::size_t w) {
    for (std::size_t i = g; i < plan.cells.size(); i += groups) {
      if (cancel.cancelled()) break;
      const PartitionedCell& cell = plan.cells[i];
      // Grid cells are near-square, so either sweep axis does as well.
      RunTileJoin(tile_join, Axis::kX, r, s, cell.r_ids, cell.s_ids,
                  &cell.dedup_tile, &local_results[w], &local_stats[w]);
    }
    std::vector<ResultPair>& pairs = local_results[w].mutable_pairs();
    if (sink == nullptr || pairs.empty()) return;
    MutexLock lock(&sink_mu);
    (*sink)(std::move(pairs));
    pairs.clear();
  };

  if (workers == 1) {
    // Inline on the calling thread; no pool, no graph.
    for (std::size_t g = 0; g < groups; ++g) run_group(g, 0);
  } else {
    ThreadPool pool(workers);
    exec::TaskGraph graph(&pool, cancel, trace, usage);
    for (std::size_t g = 0; g < groups; ++g) {
      graph.Add([&run_group, &pool, g] {
        run_group(g, pool.CurrentWorkerIndex());
      });
    }
    graph.Wait();
  }

  if (stats != nullptr) {
    for (const JoinStats& ls : local_stats) *stats += ls;
  }
  if (sink == nullptr) {
    if (workers == 1) return std::move(local_results[0]);
    std::size_t total = 0;
    for (const JoinResult& lr : local_results) total += lr.size();
    merged.Reserve(total);
    for (JoinResult& lr : local_results) merged.Merge(std::move(lr));
  }
  return merged;
}

Status PartitionedDriver::Plan(const Dataset& r, const Dataset& s) {
  auto plan = PlanPartitionedCells(r, s, options_);
  if (!plan.ok()) return plan.status();
  plan_ = std::move(*plan);
  r_ = &r;
  s_ = &s;
  planned_ = true;
  return Status::OK();
}

JoinResult PartitionedDriver::Execute(JoinStats* stats) {
  if (!planned_ || plan_ == nullptr) return JoinResult();
  return ExecutePartitionedPlan(*plan_, *r_, *s_, options_.tile_join,
                                options_.num_threads, stats);
}

}  // namespace swiftspatial

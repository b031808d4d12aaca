// Figure 8: end-to-end spatial join latency of SwiftSpatial (simulated,
// sync-traversal and PBSM variants) against the optimized C++ baselines
// (single/multi-threaded synchronous traversal and PBSM), across dataset
// shapes, scales, and geometry kinds.
//
// Paper configuration (§5.2): node/tile size 16, 16 join units, 16 CPU
// threads; FPGA latency includes host transfers; baselines assume data and
// indexes already resident.
#include <cstdio>
#include <optional>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "grid/hierarchical_partition.h"
#include "hw/accelerator.h"
#include "join/engine.h"
#include "rtree/bulk_load.h"

namespace swiftspatial::bench {
namespace {

void RunCase(const BenchEnv& env, WorkloadShape shape, JoinKind kind,
             uint64_t scale, TablePrinter* table, JsonReporter* json) {
  const JoinInputs in = MakeInputs(shape, kind, scale);

  BulkLoadOptions bl;
  bl.max_entries = 16;  // optimal per §5.3
  bl.num_threads = env.cpu_threads;
  const PackedRTree rt = StrBulkLoad(in.r, bl);
  const PackedRTree st = StrBulkLoad(in.s, bl);

  HierarchicalPartitionOptions hp;
  hp.tile_cap = 16;  // optimal per §5.4
  hp.initial_grid = 64;
  const auto partition = PartitionHierarchical(in.r, in.s, hp);

  struct Row {
    const char* system;
    double seconds;
    uint64_t results;
    std::optional<uint64_t> predicates;  // CPU rows only
  };
  std::vector<Row> rows;

  // --- SwiftSpatial (simulated device; includes PCIe + launch). ---
  {
    hw::AcceleratorConfig cfg;
    cfg.num_join_units = env.units;
    const auto report = hw::Accelerator(cfg).RunSyncTraversal(rt, st);
    rows.push_back({"SwiftSpatial SyncTrav (sim)", report.total_seconds,
                    report.num_results, std::nullopt});
  }
  {
    hw::AcceleratorConfig cfg;
    cfg.num_join_units = env.units;
    const auto report = hw::Accelerator(cfg).RunPbsm(in.r, in.s, partition);
    rows.push_back({"SwiftSpatial PBSM (sim)", report.total_seconds,
                    report.num_results, std::nullopt});
  }

  // --- CPU baselines through the unified engine registry. As in the paper,
  // the join proper is timed: Plan (index/partition builds) is done once
  // outside the timed region, so MedianSeconds wraps Execute only. ---
  struct CpuBaseline {
    const char* label;
    const char* engine;
    std::size_t threads;
  };
  const CpuBaseline baselines[] = {
      {"C++ MT sync traversal", kParallelSyncTraversalEngine,
       env.cpu_threads},
      {"C++ MT PBSM", kPbsmEngine, env.cpu_threads},
      {"C++ MT partitioned driver", kPartitionedEngine, env.cpu_threads},
      {"C++ ST sync traversal", kSyncTraversalEngine, 1},
      {"C++ ST PBSM", kPbsmEngine, 1},
  };
  for (const CpuBaseline& baseline : baselines) {
    EngineConfig cfg;
    cfg.num_threads = baseline.threads;
    cfg.strategy = TraversalStrategy::kBfs;
    cfg.schedule = Schedule::kDynamic;
    cfg.num_partitions = 1024;
    const auto timing = TimeEngine(baseline.engine, cfg, in.r, in.s, env.reps);
    if (!timing.ok()) {
      SkipRow(baseline.label, timing.status());
      continue;
    }
    rows.push_back({baseline.label, timing->median_execute_seconds,
                    timing->results, timing->stats.predicate_evaluations});
  }

  // Best CPU baseline anchors the speedup column, as in the paper.
  double best_cpu = 1e300;
  for (std::size_t i = 2; i < rows.size(); ++i) {
    best_cpu = std::min(best_cpu, rows[i].seconds);
  }
  for (const Row& row : rows) {
    table->AddRow({ShapeName(shape), JoinName(kind), std::to_string(scale),
                   row.system, Ms(row.seconds),
                   Speedup(best_cpu, row.seconds),
                   std::to_string(row.results),
                   row.predicates ? std::to_string(*row.predicates) : "-"});
    std::vector<std::pair<std::string, double>> metrics = {
        {"latency_seconds", row.seconds},
        {"results", static_cast<double>(row.results)}};
    if (row.predicates) {
      metrics.emplace_back("predicates", static_cast<double>(*row.predicates));
    }
    json->AddRow(std::string(ShapeName(shape)) + "/" + JoinName(kind) + "/" +
                     std::to_string(scale) + "/" + row.system,
                 std::move(metrics));
  }
}

int Main(int argc, char** argv) {
  const BenchEnv env = BenchEnv::Parse(argc, argv);
  std::printf(
      "Figure 8 reproduction: SwiftSpatial vs optimized C++ baselines\n"
      "(units=%d, threads=%zu; speedups relative to the best CPU baseline)\n",
      env.units, env.cpu_threads);

  TablePrinter table("Fig. 8 -- end-to-end spatial join latency",
                     {"dataset", "join", "scale", "system", "latency_ms",
                      "vs_best_cpu", "results", "predicates"});
  JsonReporter json("fig08_end_to_end", env);
  for (const uint64_t scale : env.scales) {
    for (const WorkloadShape shape :
         {WorkloadShape::kUniform, WorkloadShape::kOsm}) {
      for (const JoinKind kind :
           {JoinKind::kPointPolygon, JoinKind::kPolygonPolygon}) {
        RunCase(env, shape, kind, scale, &table, &json);
      }
    }
  }
  table.Print();
  if (!json.WriteIfRequested()) return 1;
  return ExitCode();
}

}  // namespace
}  // namespace swiftspatial::bench

int main(int argc, char** argv) { return swiftspatial::bench::Main(argc, argv); }

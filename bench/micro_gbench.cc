// Micro benchmarks on google-benchmark: the primitive operations underlying
// every join -- MBR predicate evaluation, tile-level joins, R-tree window
// queries, Hilbert encoding, and bulk loading.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "datagen/generator.h"
#include "geometry/hilbert.h"
#include "join/nested_loop.h"
#include "join/plane_sweep.h"
#include "join/sync_traversal.h"
#include "rtree/bulk_load.h"

namespace swiftspatial {
namespace {

Dataset MakeTile(int n, double edge, uint64_t seed) {
  Rng rng(seed);
  std::vector<Box> boxes;
  boxes.reserve(n);
  for (int i = 0; i < n; ++i) {
    const Coord x = static_cast<Coord>(rng.Uniform(0, edge));
    const Coord y = static_cast<Coord>(rng.Uniform(0, edge));
    boxes.push_back(Box(x, y, x + 1, y + 1));
  }
  return Dataset("tile", std::move(boxes));
}

std::vector<ObjectId> AllIds(const Dataset& d) {
  std::vector<ObjectId> ids(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) ids[i] = static_cast<ObjectId>(i);
  return ids;
}

void BM_MbrIntersects(benchmark::State& state) {
  Rng rng(1);
  std::vector<Box> boxes;
  for (int i = 0; i < 1024; ++i) {
    const Coord x = static_cast<Coord>(rng.Uniform(0, 100));
    const Coord y = static_cast<Coord>(rng.Uniform(0, 100));
    boxes.push_back(Box(x, y, x + 5, y + 5));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Intersects(boxes[i & 1023], boxes[(i * 7 + 13) & 1023]));
    ++i;
  }
}
BENCHMARK(BM_MbrIntersects);

void BM_NestedLoopTile(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Dataset r = MakeTile(n, std::sqrt(n / 0.5), 2);
  const Dataset s = MakeTile(n, std::sqrt(n / 0.5), 3);
  const auto r_ids = AllIds(r), s_ids = AllIds(s);
  for (auto _ : state) {
    JoinResult out;
    NestedLoopTileJoin(r, s, r_ids, s_ids, nullptr, &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_NestedLoopTile)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_PlaneSweepTile(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Dataset r = MakeTile(n, std::sqrt(n / 0.5), 2);
  const Dataset s = MakeTile(n, std::sqrt(n / 0.5), 3);
  const auto r_ids = AllIds(r), s_ids = AllIds(s);
  for (auto _ : state) {
    JoinResult out;
    PlaneSweepTileJoin(r, s, r_ids, s_ids, Axis::kX, nullptr, &out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_PlaneSweepTile)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_RTreeWindowQuery(benchmark::State& state) {
  UniformConfig cfg;
  cfg.count = 100000;
  cfg.seed = 4;
  const Dataset d = GenerateUniform(cfg);
  BulkLoadOptions bl;
  bl.max_entries = static_cast<int>(state.range(0));
  const PackedRTree t = StrBulkLoad(d, bl);
  Rng rng(5);
  for (auto _ : state) {
    const Coord x = static_cast<Coord>(rng.Uniform(0, 9900));
    const Coord y = static_cast<Coord>(rng.Uniform(0, 9900));
    benchmark::DoNotOptimize(t.WindowQuery(Box(x, y, x + 100, y + 100)));
  }
}
BENCHMARK(BM_RTreeWindowQuery)->Arg(8)->Arg(16)->Arg(64);

void BM_HilbertEncode(benchmark::State& state) {
  uint32_t x = 12345, y = 54321;
  for (auto _ : state) {
    benchmark::DoNotOptimize(HilbertD2XYInverse(16, x & 0xffff, y & 0xffff));
    x = x * 1664525 + 1013904223;
    y = y * 22695477 + 1;
  }
}
BENCHMARK(BM_HilbertEncode);

void BM_StrBulkLoad(benchmark::State& state) {
  UniformConfig cfg;
  cfg.count = static_cast<uint64_t>(state.range(0));
  cfg.seed = 6;
  const Dataset d = GenerateUniform(cfg);
  BulkLoadOptions bl;
  bl.max_entries = 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(StrBulkLoad(d, bl).num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * cfg.count);
}
BENCHMARK(BM_StrBulkLoad)->Arg(10000)->Arg(100000);

void BM_SyncTraversalDfs(benchmark::State& state) {
  UniformConfig cfg;
  cfg.count = 50000;
  cfg.seed = 7;
  const Dataset r = GenerateUniform(cfg);
  cfg.seed = 8;
  const Dataset s = GenerateUniform(cfg);
  BulkLoadOptions bl;
  bl.max_entries = static_cast<int>(state.range(0));
  const PackedRTree rt = StrBulkLoad(r, bl);
  const PackedRTree st = StrBulkLoad(s, bl);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SyncTraversalDfs(rt, st).size());
  }
}
BENCHMARK(BM_SyncTraversalDfs)->Arg(8)->Arg(16)->Arg(32);

}  // namespace
}  // namespace swiftspatial

BENCHMARK_MAIN();

// The simulated SwiftSpatial device as first-class join engines: the
// host/device split of the paper (FPGA filters MBRs, CPU orchestrates)
// expressed through the same Plan -> Execute interface every CPU algorithm
// uses, so benchmarks, the equivalence oracle, and the async streaming layer
// all reach the accelerator by name:
//
//   auto run = RunJoin("accel-pbsm", r, s, config);          // sync
//   auto handle = exec::RunJoinAsync("accel-bfs", r, s);     // streaming
//
// Three engines are registered in EngineRegistry::Global():
//   accel-bfs      BFS R-tree synchronous traversal (§3.4.1). Plan
//                  bulk-loads both packed trees (the host-transfer image).
//   accel-pbsm     tile-pair join over a hierarchical partition (§3.4.2).
//                  Plan runs PartitionHierarchical.
//   accel-pbsm-4x  the §6 out-of-memory path: a 2x2 spatial grid shards the
//                  join across (up to) 4 concurrent devices, results
//                  deduplicated by the reference-point rule. The seed of
//                  multi-node sharding: each shard is an independent device.
//
// Their JoinEngine::ExecuteStreaming override hands result batches to the
// sink as the simulated write unit flushes them (per BFS level / per PBSM
// tile batch / per 4x partition), which is what lets exec::RunJoinAsync
// overlap simulated-kernel execution with host-side consumption. The typed
// handle adds last_report(), the device performance model (kernel cycles,
// DRAM traffic, PCIe transfer) of the most recent Execute.
#ifndef SWIFTSPATIAL_JOIN_ACCEL_ENGINE_H_
#define SWIFTSPATIAL_JOIN_ACCEL_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "hw/accelerator.h"
#include "join/engine.h"

namespace swiftspatial {

/// JoinEngine extended with the accelerator's performance report.
/// Lifecycle as JoinEngine: Plan once, then Execute / ExecuteStreaming any
/// number of times. ExecuteStreaming delivers each write-unit burst as it
/// retires; the simulated kernel runs to completion even if the consumer
/// cancels.
class AccelJoinEngine : public JoinEngine {
 public:
  /// Device performance model of the last Execute/ExecuteStreaming
  /// (zeroed at the start of each). The multi-device engine aggregates:
  /// kernel cycles are the max over concurrent sub-joins, transfer bytes
  /// and work counters sum.
  const hw::AcceleratorReport& last_report() const { return report_; }

  /// Host bytes Plan's build products will ship over PCIe (tree images /
  /// serialized tile blocks + task table), i.e. the bytes_to_device the
  /// report will charge. 0 before Plan, for empty inputs, and for the
  /// multi-device engine (whose footprint-driven grid search builds the
  /// per-device images inside Execute).
  uint64_t planned_bytes_to_device() const { return planned_bytes_; }

 protected:
  hw::AcceleratorReport report_;
  uint64_t planned_bytes_ = 0;
};

/// True for the engine names backed by the simulated accelerator.
bool IsAccelEngine(const std::string& name);

/// Instantiates one of the accelerator engines directly -- the typed handle
/// (last_report) that the plain registry interface erases. NotFound for
/// names IsAccelEngine rejects.
Result<std::unique_ptr<AccelJoinEngine>> MakeAccelEngine(
    const std::string& name, const EngineConfig& config);

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_JOIN_ACCEL_ENGINE_H_

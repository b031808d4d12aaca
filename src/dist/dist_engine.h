// The distributed cluster behind the unified JoinEngine interface: two
// engines registered in EngineRegistry::Global(), so the equivalence
// oracle, the streaming Collect-vs-sync oracle, benches, and JoinService
// reach the multi-node path by name.
//
//   dist-pbsm   N-node cluster, CPU tile joins per shard (the partitioned
//               driver's grid shards distributed over nodes).
//   dist-accel  each node fronts a simulated device: accel-pbsm-4x
//               generalised from the fixed 2x2 grid / 4 devices to N nodes
//               x M-unit devices over arbitrary shard placement.
//
// Plan runs the ShardPlanner (grid + placement); Execute spins the
// in-process cluster and merges. The JoinEngine::ExecuteStreaming override
// hands each shard's pairs to the sink as the merge coordinator commits it;
// its cancellation token stops the cluster mid-exchange, and shard retries
// reach the caller's resource accumulator. The typed handle adds
// last_report(), the DistReport of the most recent run.
#ifndef SWIFTSPATIAL_DIST_DIST_ENGINE_H_
#define SWIFTSPATIAL_DIST_DIST_ENGINE_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "dist/dist_join.h"
#include "join/engine.h"

namespace swiftspatial::dist {

/// JoinEngine extended with the cluster's run report. Lifecycle as
/// JoinEngine: Plan once (shard planning + placement), then Execute /
/// ExecuteStreaming any number of times -- each run spins a fresh cluster
/// over the same immutable plan. Under cancellation, the shards already
/// delivered by ExecuteStreaming remain a well-defined prefix.
class DistJoinEngine : public JoinEngine {
 public:
  /// Report of the most recent Execute/ExecuteStreaming.
  const DistReport& last_report() const { return report_; }

  /// The immutable shard plan (valid after Plan).
  virtual const ShardPlan& plan() const = 0;

 protected:
  DistReport report_;
};

/// Instantiates one of the distributed engines directly -- the typed handle
/// (last_report, plan) the plain registry interface erases. NotFound for
/// names other than dist-pbsm and dist-accel.
Result<std::unique_ptr<DistJoinEngine>> MakeDistEngine(
    const std::string& name, const EngineConfig& config);

}  // namespace swiftspatial::dist

#endif  // SWIFTSPATIAL_DIST_DIST_ENGINE_H_

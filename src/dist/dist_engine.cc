#include "dist/dist_engine.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "join/partitioned_driver.h"

namespace swiftspatial::dist {

namespace {

// Data-independent cluster config checks.
Status ValidateDistConfig(const EngineConfig& config) {
  if (config.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (config.dist_nodes < 1) {
    return Status::InvalidArgument("dist_nodes must be >= 1");
  }
  SWIFT_RETURN_IF_ERROR(
      ValidateGridConfig(config.grid_cols, config.grid_rows));
  if (config.accel_join_units < 0) {
    return Status::InvalidArgument("accel_join_units must be >= 0");
  }
  if (config.accel_tile_cap < 1) {
    return Status::InvalidArgument("accel_tile_cap must be >= 1");
  }
  return Status::OK();
}

DistJoinOptions OptionsFromConfig(const EngineConfig& config,
                                  bool use_accel) {
  DistJoinOptions options;
  options.num_nodes = config.dist_nodes;
  options.placement = config.dist_placement;
  options.node_worker_threads =
      config.dist_node_threads > 0
          ? config.dist_node_threads
          : std::max<std::size_t>(
                1, config.num_threads /
                       static_cast<std::size_t>(
                           std::max(1, config.dist_nodes)));
  options.grid_cols = config.grid_cols;
  options.grid_rows = config.grid_rows;
  options.tile_join = config.tile_join;
  options.use_accel = use_accel;
  options.accel_join_units = config.accel_join_units;
  options.accel_tile_cap = config.accel_tile_cap;
  // The engine validates geometry once, at Plan.
  options.validate_inputs = false;
  options.trace = config.trace;
  return options;
}

// The cached artifact of distributed planning: the immutable ShardPlan plus
// the cluster options it was planned under. RunPlannedJoin spins a fresh
// cluster per call and never mutates the plan, so one cached ShardPlan
// serves concurrent warm executions.
class DistPreparedPlan : public PreparedPlan {
 public:
  using PreparedPlan::PreparedPlan;

  std::size_t MemoryBytes() const override {
    std::size_t bytes = shard_plan.shards.capacity() * sizeof(Shard) +
                        shard_plan.owner.capacity() * sizeof(int) +
                        shard_plan.node_cost.capacity() * sizeof(uint64_t);
    for (const Shard& shard : shard_plan.shards) {
      bytes +=
          (shard.r_ids.capacity() + shard.s_ids.capacity()) * sizeof(ObjectId);
    }
    return bytes;
  }

  DistJoinOptions options;
  ShardPlan shard_plan;
};

class DistEngineImpl : public DistJoinEngine {
 public:
  DistEngineImpl(std::string name, const EngineConfig& config, bool use_accel)
      : name_(std::move(name)), config_(config), use_accel_(use_accel) {}

  const std::string& name() const override { return name_; }

  Status ValidateConfig() override { return ValidateDistConfig(config_); }

  Result<std::shared_ptr<const PreparedPlan>> Prepare(
      std::shared_ptr<const Dataset> r,
      std::shared_ptr<const Dataset> s) override {
    SWIFT_RETURN_IF_ERROR(ValidateConfig());
    if (config_.validate_inputs) {
      SWIFT_RETURN_IF_ERROR(r->ValidateBoxes());
      SWIFT_RETURN_IF_ERROR(s->ValidateBoxes());
    }
    auto plan = std::make_shared<DistPreparedPlan>(name_, r, s);
    plan->options = OptionsFromConfig(config_, use_accel_);
    auto shard_plan =
        PlanShards(*r, *s, plan->options.grid_cols, plan->options.grid_rows,
                   plan->options.num_nodes, plan->options.placement);
    if (!shard_plan.ok()) return shard_plan.status();
    plan->shard_plan = std::move(*shard_plan);
    return std::shared_ptr<const PreparedPlan>(std::move(plan));
  }

  Status ExecutePrepared(const PreparedPlan& plan, const ResultSink& sink,
                         JoinStats* stats, exec::CancellationToken cancel,
                         obs::ResourceAccumulator* usage) override {
    if (!sink) {
      return Status::InvalidArgument(
          "ExecutePrepared requires a callable sink");
    }
    if (plan.engine() != name_) {
      return Status::InvalidArgument("prepared plan belongs to engine \"" +
                                     plan.engine() + "\", not \"" + name_ +
                                     "\"");
    }
    const auto* typed = dynamic_cast<const DistPreparedPlan*>(&plan);
    if (typed == nullptr) {
      return Status::Internal("prepared plan type mismatch for engine " +
                              name_);
    }
    // The cached options froze the PREPARING request's trace context; a
    // warm execution must carry its own, so override from this engine
    // instance's config (one engine instance per request).
    DistJoinOptions options = typed->options;
    options.trace = config_.trace;
    return Stream(plan.r(), plan.s(), typed->shard_plan, options, sink,
                  stats, std::move(cancel), usage);
  }

  Status Plan(const Dataset& r, const Dataset& s) override {
    SWIFT_RETURN_IF_ERROR(ValidateConfig());
    if (config_.validate_inputs) {
      SWIFT_RETURN_IF_ERROR(r.ValidateBoxes());
      SWIFT_RETURN_IF_ERROR(s.ValidateBoxes());
    }
    options_ = OptionsFromConfig(config_, use_accel_);
    auto plan = PlanShards(r, s, options_.grid_cols, options_.grid_rows,
                           options_.num_nodes, options_.placement);
    if (!plan.ok()) return plan.status();
    plan_ = std::move(*plan);
    r_ = &r;
    s_ = &s;
    planned_ = true;
    return Status::OK();
  }

  Status Execute(JoinResult* out, JoinStats* stats) override {
    if (!planned_) {
      return Status::Internal("Execute called before a successful Plan");
    }
    if (out == nullptr) {
      return Status::InvalidArgument("Execute requires a non-null result");
    }
    *out = JoinResult();
    auto report = RunPlannedJoin(*r_, *s_, plan_, options_, out, stats);
    if (!report.ok()) return report.status();
    report_ = std::move(*report);
    return Status::OK();
  }

  Status ExecuteStreaming(const ResultSink& sink, JoinStats* stats,
                          exec::CancellationToken cancel,
                          obs::ResourceAccumulator* usage) override {
    if (!planned_) {
      return Status::Internal(
          "ExecuteStreaming called before a successful Plan");
    }
    if (!sink) {
      return Status::InvalidArgument(
          "ExecuteStreaming requires a callable sink");
    }
    return Stream(*r_, *s_, plan_, options_, sink, stats, std::move(cancel),
                  usage);
  }

  const ShardPlan& plan() const override { return plan_; }

 private:
  // Runs the cluster over `plan`, handing each committed shard to `sink`;
  // the token stops the cluster mid-exchange.
  Status Stream(const Dataset& r, const Dataset& s, const ShardPlan& plan,
                const DistJoinOptions& options, const ResultSink& sink,
                JoinStats* stats, exec::CancellationToken cancel,
                obs::ResourceAccumulator* usage) {
    const ShardSink shard_sink = [&sink](int, std::vector<ResultPair> pairs) {
      sink(std::move(pairs));
    };
    auto report = RunPlannedJoin(r, s, plan, options, /*result=*/nullptr,
                                 stats, shard_sink, std::move(cancel));
    if (!report.ok()) return report.status();
    report_ = std::move(*report);
    // Shard retries are this run's fault-recovery cost; surface them in the
    // caller's per-request accounting alongside CPU and bytes.
    if (usage != nullptr) {
      usage->AddRetries(static_cast<uint64_t>(report_.retried_shards));
    }
    return Status::OK();
  }

  std::string name_;
  EngineConfig config_;
  bool use_accel_;
  DistJoinOptions options_;
  ShardPlan plan_;
  const Dataset* r_ = nullptr;
  const Dataset* s_ = nullptr;
  bool planned_ = false;
};

}  // namespace

Result<std::unique_ptr<DistJoinEngine>> MakeDistEngine(
    const std::string& name, const EngineConfig& config) {
  if (name == kDistPbsmEngine) {
    return std::unique_ptr<DistJoinEngine>(std::make_unique<DistEngineImpl>(
        name, config, /*use_accel=*/false));
  }
  if (name == kDistAccelEngine) {
    return std::unique_ptr<DistJoinEngine>(std::make_unique<DistEngineImpl>(
        name, config, /*use_accel=*/true));
  }
  return Status::NotFound("not a distributed engine: " + name);
}

}  // namespace swiftspatial::dist

#include "join/accel_engine.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "grid/hierarchical_partition.h"
#include "hw/multi_device.h"
#include "rtree/bulk_load.h"
#include "rtree/packed_rtree.h"

namespace swiftspatial {

namespace {

// Data-independent device config checks (thread count, unit count, tile
// cap, device memory).
Status ValidateAccelConfig(const EngineConfig& config) {
  if (config.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (config.accel_join_units < 0) {
    return Status::InvalidArgument("accel_join_units must be >= 0");
  }
  if (config.accel_tile_cap < 1) {
    return Status::InvalidArgument("accel_tile_cap must be >= 1");
  }
  if (config.accel_device_memory_bytes == 0) {
    return Status::InvalidArgument("accel_device_memory_bytes must be > 0");
  }
  return Status::OK();
}

// Plan/Execute bookkeeping shared by the three device engines (the same
// contract engine.cc's EngineBase enforces for the CPU engines: config and
// geometry validation at Plan, planned/empty-input guards, *out overwritten
// per Execute). Subclasses implement PlanImpl and a single ExecuteImpl that
// serves both the collecting and the streaming entry points.
class AccelEngineBase : public AccelJoinEngine {
 public:
  AccelEngineBase(std::string name, const EngineConfig& config)
      : name_(std::move(name)), config_(config) {}

  const std::string& name() const override { return name_; }

  Status ValidateConfig() override { return ValidateAccelConfig(config_); }

  Status Plan(const Dataset& r, const Dataset& s) final {
    SWIFT_RETURN_IF_ERROR(ValidateConfig());
    if (config_.validate_inputs) {
      SWIFT_RETURN_IF_ERROR(r.ValidateBoxes());
      SWIFT_RETURN_IF_ERROR(s.ValidateBoxes());
    }
    r_ = &r;
    s_ = &s;
    planned_bytes_ = 0;
    if (!r.empty() && !s.empty()) {
      SWIFT_RETURN_IF_ERROR(PlanImpl(r, s));
    }
    planned_ = true;
    return Status::OK();
  }

  Status Execute(JoinResult* out, JoinStats* stats) final {
    if (!planned_) {
      return Status::Internal("Execute called before a successful Plan");
    }
    if (out == nullptr) {
      return Status::InvalidArgument("Execute requires a non-null result");
    }
    *out = JoinResult();
    report_ = hw::AcceleratorReport{};
    if (r_->empty() || s_->empty()) return Status::OK();
    return ExecuteImpl(*r_, *s_, out, stats, nullptr);
  }

  // The simulated kernel cannot stop mid-run (a cancelled consumer drops
  // the remaining batches instead), and the device's costs are in
  // last_report(), so the token and the accumulator are unused.
  Status ExecuteStreaming(const ResultSink& sink, JoinStats* stats,
                          exec::CancellationToken,
                          obs::ResourceAccumulator*) final {
    if (!planned_) {
      return Status::Internal(
          "ExecuteStreaming called before a successful Plan");
    }
    if (!sink) {
      return Status::InvalidArgument(
          "ExecuteStreaming requires a callable sink");
    }
    report_ = hw::AcceleratorReport{};
    if (r_->empty() || s_->empty()) return Status::OK();
    return ExecuteImpl(*r_, *s_, nullptr, stats, &sink);
  }

 protected:
  /// Builds the device images (trees / partitions). Non-empty inputs only.
  virtual Status PlanImpl(const Dataset& r, const Dataset& s) = 0;
  /// Runs the device. Exactly one of `out` (collecting) and `sink`
  /// (streaming) is non-null. Must fill report_.
  virtual Status ExecuteImpl(const Dataset& r, const Dataset& s,
                             JoinResult* out, JoinStats* stats,
                             const ResultSink* sink) = 0;

  const EngineConfig& config() const { return config_; }

  hw::AcceleratorConfig DeviceConfig() const {
    hw::AcceleratorConfig acfg;
    if (config_.accel_join_units > 0) {
      acfg.num_join_units = config_.accel_join_units;
    }
    return acfg;
  }

  /// Bridges the write unit's burst granularity to the engine sink: each
  /// flushed result burst (a tile batch / a run of leaf pairs) becomes one
  /// host-visible batch.
  static hw::ResultSink BurstBridge(const ResultSink& sink) {
    return [&sink](const std::vector<ResultPair>& pairs) {
      sink(std::vector<ResultPair>(pairs));
    };
  }

 private:
  std::string name_;
  EngineConfig config_;
  const Dataset* r_ = nullptr;
  const Dataset* s_ = nullptr;
  bool planned_ = false;
};

// ---------------------------------------------------------------------------
// accel-bfs: BFS synchronous R-tree traversal on the device (§3.4.1). Plan
// is the host's side of the bargain: bulk-load both packed trees -- the
// byte images PCIe will ship -- and price them in planned_bytes_to_device.
// ---------------------------------------------------------------------------
class AccelBfsEngine : public AccelEngineBase {
 public:
  using AccelEngineBase::AccelEngineBase;

  Status ValidateConfig() override {
    SWIFT_RETURN_IF_ERROR(AccelEngineBase::ValidateConfig());
    if (config().node_capacity < 2) {
      return Status::InvalidArgument("node_capacity must be >= 2");
    }
    return Status::OK();
  }

 protected:
  Status PlanImpl(const Dataset& r, const Dataset& s) override {
    BulkLoadOptions bl;
    bl.max_entries = config().node_capacity;
    bl.num_threads = config().num_threads;
    r_tree_.emplace(StrBulkLoad(r, bl));
    s_tree_.emplace(StrBulkLoad(s, bl));
    planned_bytes_ = r_tree_->bytes().size() + s_tree_->bytes().size();
    return Status::OK();
  }

  Status ExecuteImpl(const Dataset&, const Dataset&, JoinResult* out,
                     JoinStats* stats, const ResultSink* sink) override {
    hw::Accelerator device(DeviceConfig());
    hw::ResultSink bridge;
    if (sink != nullptr) bridge = BurstBridge(*sink);
    report_ = device.RunSyncTraversal(*r_tree_, *s_tree_, out,
                                      sink != nullptr ? &bridge : nullptr);
    if (stats != nullptr) *stats += report_.stats;
    return Status::OK();
  }

 private:
  std::optional<PackedRTree> r_tree_;
  std::optional<PackedRTree> s_tree_;
};

// ---------------------------------------------------------------------------
// accel-pbsm: tile-pair join over a hierarchical partition (§3.4.2). Plan
// partitions; the serialized tile stores + task table are the transfer.
// ---------------------------------------------------------------------------
class AccelPbsmEngine : public AccelEngineBase {
 public:
  using AccelEngineBase::AccelEngineBase;

 protected:
  Status PlanImpl(const Dataset& r, const Dataset& s) override {
    HierarchicalPartitionOptions hp;
    hp.tile_cap = config().accel_tile_cap;
    partition_ = PartitionHierarchical(r, s, hp);
    planned_bytes_ = hw::PbsmDeviceImageBytes(partition_);
    return Status::OK();
  }

  Status ExecuteImpl(const Dataset& r, const Dataset& s, JoinResult* out,
                     JoinStats* stats, const ResultSink* sink) override {
    hw::Accelerator device(DeviceConfig());
    hw::ResultSink bridge;
    if (sink != nullptr) bridge = BurstBridge(*sink);
    report_ = device.RunPbsm(r, s, partition_, out,
                             sink != nullptr ? &bridge : nullptr);
    if (stats != nullptr) *stats += report_.stats;
    return Status::OK();
  }

 private:
  HierarchicalPartition partition_;
};

// ---------------------------------------------------------------------------
// accel-pbsm-4x: the §6 larger-than-device-memory path as an engine. A 2x2
// spatial grid (min_grid = 2) shards the join across up to 4 concurrent
// simulated devices; per-shard results are deduplicated on the host by the
// reference-point rule against the outer grid's dedup tiles. Streaming
// flushes each shard's deduplicated global pairs as that device retires.
// ---------------------------------------------------------------------------
class AccelPbsmMultiEngine : public AccelEngineBase {
 public:
  using AccelEngineBase::AccelEngineBase;

 protected:
  Status PlanImpl(const Dataset&, const Dataset&) override {
    // The grid-resolution search is footprint-driven and may refine during
    // execution (§6), so the per-device images are built inside Execute;
    // Plan's job here is validation only.
    return Status::OK();
  }

  Status ExecuteImpl(const Dataset& r, const Dataset& s, JoinResult* out,
                     JoinStats* stats, const ResultSink* sink) override {
    hw::MultiDeviceConfig mdc;
    mdc.device = DeviceConfig();
    mdc.device_memory_bytes = config().accel_device_memory_bytes;
    mdc.strategy = hw::OutOfMemoryStrategy::kMultipleDevices;
    mdc.tile_cap = config().accel_tile_cap;
    mdc.min_grid = 2;  // the "4x": 2x2 spatial shards, one device each
    if (sink != nullptr) {
      // The engine sink is shard-agnostic; the stable id matters to callers
      // that dedup retried shards (the dist/ fault-recovery path).
      mdc.partition_sink = [sink](int /*shard_id*/,
                                  std::vector<ResultPair> pairs) {
        (*sink)(std::move(pairs));
      };
    }
    auto mdr = hw::PartitionedJoin(r, s, mdc, out);
    if (!mdr.ok()) return mdr.status();

    // Aggregate the per-device reports into one device view: concurrent
    // shards overlap, so cycle-like quantities take the max; transferred
    // bytes and work counters sum.
    report_.num_results = mdr->num_results;
    report_.total_seconds = mdr->total_seconds;
    for (const hw::AcceleratorReport& sub : mdr->sub_reports) {
      report_.kernel_cycles = std::max(report_.kernel_cycles,
                                       sub.kernel_cycles);
      report_.kernel_seconds = std::max(report_.kernel_seconds,
                                        sub.kernel_seconds);
      report_.host_transfer_seconds = std::max(report_.host_transfer_seconds,
                                               sub.host_transfer_seconds);
      report_.launch_seconds = std::max(report_.launch_seconds,
                                        sub.launch_seconds);
      report_.bytes_to_device += sub.bytes_to_device;
      report_.bytes_from_device += sub.bytes_from_device;
      report_.device_bytes_used = std::max(report_.device_bytes_used,
                                           sub.device_bytes_used);
      report_.stats += sub.stats;
    }
    if (stats != nullptr) *stats += report_.stats;
    return Status::OK();
  }
};

}  // namespace

bool IsAccelEngine(const std::string& name) {
  return name == kAccelBfsEngine || name == kAccelPbsmEngine ||
         name == kAccelPbsmMultiEngine;
}

Result<std::unique_ptr<AccelJoinEngine>> MakeAccelEngine(
    const std::string& name, const EngineConfig& config) {
  if (name == kAccelBfsEngine) {
    return std::unique_ptr<AccelJoinEngine>(
        std::make_unique<AccelBfsEngine>(name, config));
  }
  if (name == kAccelPbsmEngine) {
    return std::unique_ptr<AccelJoinEngine>(
        std::make_unique<AccelPbsmEngine>(name, config));
  }
  if (name == kAccelPbsmMultiEngine) {
    return std::unique_ptr<AccelJoinEngine>(
        std::make_unique<AccelPbsmMultiEngine>(name, config));
  }
  return Status::NotFound("not an accelerator engine: " + name);
}

}  // namespace swiftspatial

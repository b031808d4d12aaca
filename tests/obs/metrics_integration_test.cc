// The metrics exposition cross-checked against the legacy stats structs: a
// warm-served distributed join must report the same admission, completion,
// and plan-cache numbers through the MetricsRegistry as through
// JoinService::Snapshot(), and the dist counters in the Global registry
// must move in step with the DistReport.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "exec/service.h"
#include "join/engine.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace swiftspatial {
namespace {

TEST(MetricsIntegrationTest, ServedDistJoinMatchesLegacyStructs) {
#ifdef SWIFTSPATIAL_OBS_OFF
  GTEST_SKIP() << "observability compiled out (SWIFTSPATIAL_OBS_OFF)";
#endif
  // Private registry isolates the service/cache/stream series; the dist
  // layer reports to the Global registry (it is reached through the engine
  // API, which carries no registry pointer), so those are checked as
  // deltas.
  obs::MetricsRegistry reg;
  obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
  obs::Counter* dist_runs = global.GetCounter("swiftspatial_dist_runs_total");
  obs::Counter* dist_shards =
      global.GetCounter("swiftspatial_dist_shards_executed_total");
  obs::Counter* exch_msgs =
      global.GetCounter("swiftspatial_dist_exchange_messages_total");
  const uint64_t runs0 = dist_runs->value();
  const uint64_t shards0 = dist_shards->value();
  const uint64_t msgs0 = exch_msgs->value();

  exec::JoinServiceOptions options;
  options.worker_threads = 2;
  options.max_concurrent = 1;
  options.metrics = &reg;
  exec::JoinService service(options);
  service.RegisterDataset("r", testutil::Uniform(400, 81));
  service.RegisterDataset("s", testutil::Uniform(400, 82));

  EngineConfig config;
  config.num_threads = 2;
  config.dist_nodes = 2;
  for (int i = 0; i < 2; ++i) {  // cold, then warm (plan-cache hit)
    auto handle =
        service.SubmitNamed("tenant-a", kDistPbsmEngine, "r", "s", config);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    exec::StreamSummary summary = handle->Collect();
    ASSERT_TRUE(summary.status.ok()) << summary.status.ToString();
    ASSERT_GT(summary.run.result.size(), 0u);
  }
  service.Drain();

  const exec::JoinServiceStats snap = service.Snapshot();
  EXPECT_EQ(snap.admitted, 2u);
  EXPECT_EQ(snap.completed, 2u);
  EXPECT_EQ(snap.plan_cache.misses, 1u);
  EXPECT_EQ(snap.plan_cache.hits, 1u);

  // Service + cache series agree with the consistent snapshot.
  EXPECT_EQ(reg.GetCounter("swiftspatial_service_admitted_total")->value(),
            snap.admitted);
  EXPECT_EQ(reg.GetCounter("swiftspatial_service_completed_total")->value(),
            snap.completed);
  EXPECT_EQ(reg.GetCounter("swiftspatial_service_rejected_total")->value(),
            snap.rejected);
  EXPECT_EQ(reg.GetCounter("swiftspatial_cache_hits_total")->value(),
            snap.plan_cache.hits);
  EXPECT_EQ(reg.GetCounter("swiftspatial_cache_misses_total")->value(),
            snap.plan_cache.misses);

  // Per-tenant latency histograms recorded one observation per completion.
  obs::Histogram* run_hist = reg.GetHistogram("swiftspatial_service_run_seconds", {{"tenant", "tenant-a"}});
  obs::Histogram* wait_hist = reg.GetHistogram("swiftspatial_service_queue_wait_seconds", {{"tenant", "tenant-a"}});
  EXPECT_EQ(run_hist->count(), 2u);
  EXPECT_EQ(wait_hist->count(), 2u);
  EXPECT_GT(run_hist->sum(), 0.0);

  // Stream-level series (same private registry via StreamOptions).
  EXPECT_EQ(reg.GetHistogram("swiftspatial_stream_execute_seconds", {{"engine", kDistPbsmEngine}})->count(), 2u);
  EXPECT_GE(reg.GetCounter("swiftspatial_stream_chunks_total", {{"engine", kDistPbsmEngine}})->value(), 2u);

  // Dist-layer counters moved in step with the two cluster runs.
  EXPECT_EQ(dist_runs->value() - runs0, 2u);
  EXPECT_GT(dist_shards->value() - shards0, 0u);
  EXPECT_GT(exch_msgs->value() - msgs0, 0u);
  EXPECT_EQ((dist_shards->value() - shards0) % 2, 0u)
      << "identical runs must execute identical shard counts";

  // The one-pane-of-glass endpoint exposes every layer.
  const std::string text = service.MetricsText();
  for (const char* needle :
       {"swiftspatial_service_admitted_total 2",
        "swiftspatial_service_pending 0",
        "swiftspatial_service_running 0",
        "swiftspatial_service_queue_wait_seconds_bucket",
        "swiftspatial_cache_hits_total 1",
        "swiftspatial_stream_execute_seconds_count{engine=\"dist-pbsm\"} 2"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  const std::string json = service.MetricsJson();
  EXPECT_NE(json.find("\"swiftspatial_service_admitted_total\""),
            std::string::npos);

  // The service is idle, so a second snapshot reads the same counters.
  EXPECT_EQ(service.Snapshot().admitted, snap.admitted);
}

}  // namespace
}  // namespace swiftspatial

// The repository benchmark: one process runs one workload for a fixed time
// and prints every end-to-end metric (untraced run) or every per-layer metric
// (traced run), then one JSON result line. perfbench/run.py builds this
// binary and passes the arguments through; perfbench/README.md describes the
// workloads and what each metric should move.
//
//   swiftbench --workload uniform-pbsm --seed 1 --seconds 20 --trace 0
//
// Every operation's result is checked against a reference computed once per
// (workload, seed) by an engine of a different family, in a child process,
// so neither its time nor its memory counts in any metric.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/dataset.h"
#include "datagen/generator.h"
#include "exec/service.h"
#include "exec/streaming.h"
#include "hw/accelerator.h"
#include "join/accel_engine.h"
#include "join/engine.h"
#include "join/result.h"
#include "join/simd_filter.h"
#include "refine/refinement.h"
#include "trace.h"

namespace perfbench {
namespace {

using swiftspatial::Dataset;
using swiftspatial::EngineConfig;
using swiftspatial::EngineRegistry;
using swiftspatial::GeometryKind;
using swiftspatial::JoinResult;
using swiftspatial::JoinStats;
using swiftspatial::RefinementStats;
using swiftspatial::ResultPair;
using swiftspatial::exec::JoinService;

/// Engine threads and client threads, sized for a 4-vCPU machine.
constexpr std::size_t kThreads = 4;
/// Set-up is timed in two phases, before the warm-up and after the measured
/// interval, so its median spans the run rather than one moment of a noisy
/// machine. Each phase repeats it at least kMinSetupReps times and until it
/// has taken kSetupSeconds, at most kMaxSetupReps times.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 25;
constexpr double kSetupSeconds = 1.0;
/// serve-osm: one dataset write per this many submitted requests.
constexpr uint64_t kRequestsPerWrite = 40;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args->seconds > 0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else if (key == "--source-digest") {
      args->source_digest = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && have_seed &&
         have_seconds && have_trace;
}

// --------------------------------------------------------------------------
// Result fingerprints: a count plus an order-independent 64-bit sum of mixed
// pair keys, so results can be compared without sorting or storing them.
// --------------------------------------------------------------------------

uint64_t Mix(uint64_t x) {  // splitmix64 finaliser
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Digest {
  uint64_t count = 0;
  uint64_t sum = 0;

  void Add(const std::vector<ResultPair>& pairs) {
    for (const ResultPair& p : pairs) {
      ++count;
      sum += Mix((static_cast<uint64_t>(static_cast<uint32_t>(p.r)) << 32) |
                 static_cast<uint32_t>(p.s));
    }
  }
  static Digest Of(const std::vector<ResultPair>& pairs) {
    Digest d;
    d.Add(pairs);
    return d;
  }
  friend bool operator==(const Digest& a, const Digest& b) {
    return a.count == b.count && a.sum == b.sum;
  }
};

// --------------------------------------------------------------------------
// Process measurements and statistics.
// --------------------------------------------------------------------------

double CpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string LoadAverage() {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) return "unknown";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f/%.2f/%.2f", load[0], load[1],
                load[2]);
  return buf;
}

/// Linearly interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// One set-up phase: runs `set_up`, which returns its own duration in
/// seconds, as often as the constants above say, appending each duration.
void RepeatSetUp(const std::function<double()>& set_up,
                 std::vector<double>* seconds) {
  double total = 0;
  for (int reps = 0; reps < kMaxSetupReps &&
                     (reps < kMinSetupReps || total < kSetupSeconds);
       ++reps) {
    seconds->push_back(set_up());
    total += seconds->back();
  }
}

// --------------------------------------------------------------------------
// Metric catalogue. Every run reports every metric of its mode (0 where the
// workload does not exercise the layer), in the order of BENCHMARK.json.
// --------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"op_p50_ms", "ms"},   {"op_p90_ms", "ms"},
    {"ops_per_s", "1/s"},     {"ttfc_p50_ms", "ms"}, {"peak_rss_mb", "MB"},
    {"cpu_per_op_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"datagen.generate_s", "s"},
    {"grid.plan_s", "s"},
    {"rtree.plan_s", "s"},
    {"join.execute_s", "s"},
    {"join.predicates", "count"},
    {"join.pairs", "count"},
    {"join.precision", "ratio"},
    {"join.tasks", "count"},
    {"join.intermediate_pairs", "count"},
    {"refine.s", "s"},
    {"refine.candidates", "count"},
    {"refine.verified", "count"},
    {"refine.precision", "ratio"},
    {"exec.service.requests", "count"},
    {"exec.service.queue_wait_s", "s"},
    {"exec.service.rejected", "count"},
    {"exec.service.cpu_per_req_s", "s"},
    {"exec.registry.hits", "count"},
    {"exec.registry.misses", "count"},
    {"exec.registry.hit_ratio", "ratio"},
    {"exec.registry.writes", "count"},
    {"exec.registry.register_s", "s"},
    {"exec.stream.chunks_per_req", "count"},
    {"exec.stream.ttfc_share", "ratio"},
    {"exec.stream.max_queue_depth", "count"},
    {"exec.task_graph.tasks_per_req", "count"},
    {"hw.plan_s", "s"},
    {"hw.execute_s", "s"},
    {"hw.device_model_ms", "ms"},
    {"hw.kernel_cycles", "count"},
    {"hw.pcie_bytes", "bytes"},
    {"hw.dram_bytes", "bytes"},
    {"hw.unit_utilization", "ratio"},
    {"hw.dram_utilization", "ratio"},
    {"proc.cpu_s", "s"},
    {"proc.wall_s", "s"},
    {"proc.cpu_utilization", "ratio"},
    {"harness.self_s", "s"},
    {"join.self_s", "s"},
    {"grid.self_s", "s"},
    {"rtree.self_s", "s"},
    {"refine.self_s", "s"},
    {"hw.self_s", "s"},
    {"exec.service.self_s", "s"},
    {"exec.registry.self_s", "s"},
    {"exec.stream.self_s", "s"},
    {"trace.spans_per_op", "count"},
    {"trace.traced_p50_ms", "ms"},
    {"trace.untraced_p50_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"ops", "count"},
    {"error_rate", "ratio"},
};

/// Layers whose self time is reported as "<layer>.self_s".
constexpr const char* kTracedLayers[] = {
    "harness", "join",         "grid",          "rtree",       "refine",
    "hw",      "exec.service", "exec.registry", "exec.stream",
};

/// Ratios and percentiles, and the metrics printed beside them as their
/// base.
const std::map<std::string, std::vector<std::string>>& RatioBases() {
  static const std::map<std::string, std::vector<std::string>> bases = {
      {"join.precision", {"join.pairs", "join.predicates"}},
      {"refine.precision", {"refine.verified", "refine.candidates"}},
      {"exec.registry.hit_ratio",
       {"exec.registry.hits", "exec.registry.misses"}},
      {"exec.stream.ttfc_share",
       {"exec.stream.chunks_per_req", "exec.service.requests"}},
      {"proc.cpu_utilization", {"proc.cpu_s", "proc.wall_s"}},
      {"hw.unit_utilization", {"hw.kernel_cycles"}},
      {"hw.dram_utilization", {"hw.dram_bytes", "hw.kernel_cycles"}},
      {"trace.overhead_ms", {"trace.traced_p50_ms", "trace.untraced_p50_ms"}},
      {"error_rate", {"ops"}},
      {"op_p50_ms", {"ops"}},
      {"op_p90_ms", {"ops"}},
      {"ttfc_p50_ms", {"ops"}},
  };
  return bases;
}

/// Name -> value for the metrics a run measured; Print emits one mode's
/// catalogue in order, reporting unset names as 0.
class Metrics {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  double Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
  }

  /// Human-readable table (one "name value unit" line each, ratios with
  /// their bases) followed by the JSON result line as the last line.
  template <std::size_t N>
  void Print(const MetricDef (&defs)[N], bool correct, uint64_t attempted,
             uint64_t failed) const {
    for (const auto& [name, value] : values_) {
      bool known = false;
      for (const MetricDef& d : kEndToEnd) known |= name == d.name;
      for (const MetricDef& d : kPerLayer) known |= name == d.name;
      if (!known) {
        std::fprintf(stderr, "internal error: uncatalogued metric %s\n",
                     name.c_str());
        std::abort();
      }
    }
    for (const MetricDef& d : defs) {
      std::printf("%-32s %18.6f %s", d.name, Get(d.name), d.unit);
      auto it = RatioBases().find(d.name);
      if (it != RatioBases().end()) {
        std::printf("   (");
        for (std::size_t i = 0; i < it->second.size(); ++i) {
          std::printf("%s%s %.6g", i ? ", " : "", it->second[i].c_str(),
                      Get(it->second[i]));
        }
        std::printf(")");
      }
      std::printf("\n");
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < N; ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", defs[i].name, Get(defs[i].name), defs[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::map<std::string, double> values_;
};

/// Mean self seconds per operation for each traced layer.
void SetSelfTimes(const std::vector<std::vector<Span>>& logs,
                  std::size_t traced_ops, Metrics* m) {
  std::map<std::string, double> self;
  std::size_t spans = 0;
  for (const auto& log : logs) {
    for (const auto& [layer, seconds] : SelfSecondsByLayer(log)) {
      self[layer] += seconds;
    }
    spans += static_cast<std::size_t>(std::count_if(
        log.begin(), log.end(), [](const Span& s) { return s.op != 0; }));
  }
  for (const char* layer : kTracedLayers) {
    m->Set(std::string(layer) + ".self_s",
           Ratio(self[layer], static_cast<double>(traced_ops)));
  }
  m->Set("trace.spans_per_op",
         Ratio(static_cast<double>(spans), static_cast<double>(traced_ops)));
}

struct Outcome {
  Metrics metrics;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Per-operation samples of the measured interval (successful operations
/// only), plus the process CPU and wall seconds it took.
struct Samples {
  std::vector<double> latency_s;
  std::vector<double> ttfc_s;
  /// latency_s split by whether the operation was traced.
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  double cpu_s = 0;
  double wall_s = 0;
};

/// The metrics every workload derives the same way from its samples, and in
/// traced runs the self times, the tracing overhead and the span file.
void FinishRun(const Args& args, const Samples& samples,
               const std::vector<std::vector<Span>>& logs, Outcome* out) {
  Metrics& m = out->metrics;
  const double n = static_cast<double>(out->attempted);
  m.Set("op_p50_ms", Median(samples.latency_s) * 1e3);
  m.Set("op_p90_ms", Quantile(samples.latency_s, 0.9) * 1e3);
  m.Set("ops_per_s",
        static_cast<double>(samples.latency_s.size()) / samples.wall_s);
  m.Set("ttfc_p50_ms", Median(samples.ttfc_s) * 1e3);
  m.Set("cpu_per_op_s", Ratio(samples.cpu_s, n));
  m.Set("proc.cpu_s", samples.cpu_s);
  m.Set("proc.wall_s", samples.wall_s);
  m.Set("proc.cpu_utilization", Ratio(samples.cpu_s, samples.wall_s));
  m.Set("ops", n);
  m.Set("error_rate", Ratio(static_cast<double>(out->failed), n));
  if (!args.trace) return;
  SetSelfTimes(logs, samples.traced_s.size(), &m);
  const double traced = Median(samples.traced_s);
  const double untraced = Median(samples.untraced_s);
  m.Set("trace.traced_p50_ms", traced * 1e3);
  m.Set("trace.untraced_p50_ms", untraced * 1e3);
  m.Set("trace.overhead_ms", (traced - untraced) * 1e3);
  if (!args.trace_out.empty() && !WriteSpans(args.trace_out, logs)) {
    std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
  }
}

// --------------------------------------------------------------------------
// Inputs. Every dataset seed derives from the run's seed (the MakeInputs
// convention of bench/bench_util.h, with the run seed as the seed base).
// --------------------------------------------------------------------------

struct Inputs {
  Dataset r;
  Dataset s;
  /// serve-osm: the second version of R that writes alternate to.
  Dataset r2;
};

uint64_t SeedBase(uint64_t seed) { return seed * 1000; }

Dataset UniformSquares(SpanLog* log, uint64_t count, uint64_t seed) {
  swiftspatial::UniformConfig config;
  config.count = count;
  config.seed = seed;
  ScopedSpan span(log, "GenerateUniform", "datagen");
  return swiftspatial::GenerateUniform(config);
}

Dataset OsmLike(SpanLog* log, bool points, uint64_t count, uint64_t seed) {
  swiftspatial::OsmLikeConfig config;
  config.count = count;
  config.seed = seed;
  // With the default 64 cities per dataset, whether a big city of R lands on
  // a big city of S decides the result size (43k to 1.2M pairs over seeds
  // 1-10 at 1M x 1M), so the cost would follow the seed, not the code. 64x
  // the cities at an eighth of the radius cover the same share of the map
  // (the same skew) and average over many city overlaps.
  config.num_clusters = 4096;
  config.cluster_radius_frac = 0.00125;
  if (points) {
    ScopedSpan span(log, "GenerateOsmLikePoints", "datagen");
    return swiftspatial::GenerateOsmLikePoints(config);
  }
  ScopedSpan span(log, "GenerateOsmLike", "datagen");
  return swiftspatial::GenerateOsmLike(config);
}

Inputs UniformInputs(uint64_t seed, SpanLog* log) {
  Inputs in;
  in.r = UniformSquares(log, 1000000, 202 + SeedBase(seed));
  in.s = UniformSquares(log, 1000000, 101 + SeedBase(seed));
  return in;
}

Inputs OsmPointsRects(uint64_t seed, SpanLog* log) {
  Inputs in;
  in.r = OsmLike(log, /*points=*/true, 1000000, 404 + SeedBase(seed));
  in.s = OsmLike(log, /*points=*/false, 1000000, 303 + SeedBase(seed));
  return in;
}

Inputs OsmRects500k(uint64_t seed, SpanLog* log) {
  Inputs in;
  in.r = OsmLike(log, /*points=*/false, 500000, 404 + SeedBase(seed));
  in.s = OsmLike(log, /*points=*/false, 500000, 303 + SeedBase(seed));
  return in;
}

Inputs OsmServe(uint64_t seed, SpanLog* log) {
  Inputs in;
  in.r = OsmLike(log, /*points=*/false, 200000, 404 + SeedBase(seed));
  in.s = OsmLike(log, /*points=*/false, 200000, 303 + SeedBase(seed));
  in.r2 = OsmLike(log, /*points=*/false, 200000, 505 + SeedBase(seed));
  return in;
}

// --------------------------------------------------------------------------
// Reference results, computed in a child process.
// --------------------------------------------------------------------------

/// Runs `fn` in a forked child and returns the digests it produced. Must be
/// called while the process is still single-threaded. The child's CPU time
/// and memory never reach this process's getrusage figures.
bool DigestsInChild(const std::function<std::vector<Digest>()>& fn,
                    std::vector<Digest>* out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    close(fds[0]);
    const std::vector<Digest> digests = fn();
    const std::size_t bytes = digests.size() * sizeof(Digest);
    const char* p = reinterpret_cast<const char*>(digests.data());
    std::size_t written = 0;
    while (written < bytes) {
      const ssize_t n = write(fds[1], p + written, bytes - written);
      if (n <= 0) _exit(1);
      written += static_cast<std::size_t>(n);
    }
    _exit(digests.empty() ? 1 : 0);
  }
  close(fds[1]);
  std::vector<char> buf;
  char chunk[256];
  ssize_t n;
  while ((n = read(fds[0], chunk, sizeof(chunk))) > 0) {
    buf.insert(buf.end(), chunk, chunk + n);
  }
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || buf.size() % sizeof(Digest) != 0) {
    return false;
  }
  out->resize(buf.size() / sizeof(Digest));
  std::memcpy(out->data(), buf.data(), buf.size());
  return true;
}

EngineConfig ThreadedConfig() {
  EngineConfig config;
  config.num_threads = kThreads;
  return config;
}

/// Runs `engine` over (r, s) into `out`; false (after logging why) if the
/// engine fails.
bool FilterPairs(const char* engine, const Dataset& r, const Dataset& s,
                 JoinResult* out) {
  auto run = swiftspatial::RunJoin(engine, r, s, ThreadedConfig());
  if (!run.ok()) {
    std::fprintf(stderr, "reference %s failed: %s\n", engine,
                 run.status().ToString().c_str());
    return false;
  }
  *out = std::move(run->result);
  return true;
}

// --------------------------------------------------------------------------
// Batch workloads: one closed-loop caller, each operation one cold join.
// --------------------------------------------------------------------------

struct BatchWorkload {
  const char* name;
  const char* engine;
  /// An engine of another family (R-tree vs partition) for the reference.
  const char* reference_engine;
  /// Layers that own the engine's Plan and Execute.
  const char* plan_layer;
  const char* execute_layer;
  GeometryKind r_kind;
  GeometryKind s_kind;
  Inputs (*make_inputs)(uint64_t seed, SpanLog* log);
  EngineConfig config;
};

std::vector<BatchWorkload> BatchWorkloads() {
  EngineConfig accel = ThreadedConfig();
  accel.accel_join_units = 16;
  accel.accel_tile_cap = 16;
  return {
      {"uniform-pbsm", swiftspatial::kPbsmEngine,
       swiftspatial::kParallelSyncTraversalEngine, "grid", "join",
       GeometryKind::kPolygon, GeometryKind::kPolygon, UniformInputs,
       ThreadedConfig()},
      {"osm-rtree", swiftspatial::kParallelSyncTraversalEngine,
       swiftspatial::kPartitionedEngine, "rtree", "join", GeometryKind::kPoint,
       GeometryKind::kPolygon, OsmPointsRects, ThreadedConfig()},
      {"osm-accel", swiftspatial::kAccelPbsmEngine,
       swiftspatial::kParallelSyncTraversalEngine, "hw", "hw",
       GeometryKind::kPolygon, GeometryKind::kPolygon, OsmRects500k, accel},
  };
}

swiftspatial::RefinementOptions RefineOptions(std::size_t threads) {
  swiftspatial::RefinementOptions options;
  options.num_threads = threads;
  return options;
}

struct BatchOp {
  bool ok = false;
  bool traced = false;
  double latency_s = 0;
  double ttfc_s = 0;
  double plan_s = 0;
  double execute_s = 0;
  double refine_s = 0;
  JoinStats stats;
  RefinementStats refine;
  std::size_t pairs = 0;
  /// AccelJoinEngine::last_report() (osm-accel only).
  swiftspatial::hw::AcceleratorReport report;
};

/// One cold join: Create -> Plan -> Execute -> Refine, then the check
/// against the reference (filter digest, refined digest), outside the
/// timed interval.
BatchOp RunColdJoin(const BatchWorkload& w, const Inputs& in,
                    const std::vector<Digest>& expected, SpanLog* log) {
  BatchOp op;
  op.traced = log->enabled();
  JoinResult candidates;
  JoinResult refined;
  // Declared first so its teardown runs after the check, outside every span.
  std::unique_ptr<swiftspatial::JoinEngine> engine;
  {
    ScopedSpan root(log, "cold_join", "harness");
    const double t0 = Now();
    {
      ScopedSpan span(log, "EngineRegistry::Create", "join");
      auto created = EngineRegistry::Global().Create(w.engine, w.config);
      if (!created.ok()) {
        std::fprintf(stderr, "Create: %s\n",
                     created.status().ToString().c_str());
        return op;
      }
      engine = std::move(*created);
    }
    double t = Now();
    {
      ScopedSpan span(log, "JoinEngine::Plan", w.plan_layer);
      const swiftspatial::Status st = engine->Plan(in.r, in.s);
      if (!st.ok()) {
        std::fprintf(stderr, "Plan: %s\n", st.ToString().c_str());
        return op;
      }
    }
    op.plan_s = Now() - t;
    t = Now();
    {
      ScopedSpan span(log, "JoinEngine::Execute", w.execute_layer);
      const swiftspatial::Status st = engine->Execute(&candidates, &op.stats);
      if (!st.ok()) {
        std::fprintf(stderr, "Execute: %s\n", st.ToString().c_str());
        return op;
      }
    }
    op.execute_s = Now() - t;
    op.ttfc_s = Now() - t0;
    if (auto* accel =
            dynamic_cast<const swiftspatial::AccelJoinEngine*>(engine.get())) {
      ScopedSpan span(log, "AccelJoinEngine::last_report", "hw");
      op.report = accel->last_report();
    }
    t = Now();
    {
      ScopedSpan span(log, "Refine", "refine");
      refined = swiftspatial::Refine(in.r, w.r_kind, in.s, w.s_kind,
                                     candidates.pairs(),
                                     RefineOptions(kThreads), &op.refine);
    }
    op.refine_s = Now() - t;
    op.latency_s = Now() - t0;
  }
  op.pairs = candidates.size();
  op.ok = Digest::Of(candidates.pairs()) == expected[0] &&
          Digest::Of(refined.pairs()) == expected[1];
  if (!op.ok) std::fprintf(stderr, "cold join result differs from reference\n");
  return op;
}

Outcome RunBatch(const BatchWorkload& w, const Args& args) {
  Outcome out;
  Metrics& m = out.metrics;

  // Reference: filter pairs from the other engine family, refined
  // single-threaded.
  std::vector<Digest> expected;
  if (!DigestsInChild(
          [&]() -> std::vector<Digest> {
            SpanLog none;
            const Inputs in = w.make_inputs(args.seed, &none);
            JoinResult pairs;
            if (!FilterPairs(w.reference_engine, in.r, in.s, &pairs)) return {};
            const JoinResult refined =
                swiftspatial::Refine(in.r, w.r_kind, in.s, w.s_kind,
                                     pairs.pairs(), RefineOptions(1));
            return {Digest::Of(pairs.pairs()), Digest::Of(refined.pairs())};
          },
          &expected) ||
      expected.size() != 2) {
    std::fprintf(stderr, "reference computation failed\n");
    out.correct = false;
    return out;
  }

  SpanLog log;
  log.BeginOp(0, args.trace);
  Inputs in;
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const double t0 = Now();
    in = w.make_inputs(args.seed, &log);
    return Now() - t0;
  };
  RepeatSetUp(set_up, &setup_s);

  uint64_t op_id = 1;
  log.BeginOp(op_id++, false);
  const BatchOp warmup = RunColdJoin(w, in, expected, &log);
  out.correct = warmup.ok;

  std::vector<BatchOp> ops;
  Samples samples;
  const double cpu0 = CpuSeconds();
  const double wall0 = Now();
  while (Now() - wall0 < args.seconds || ops.size() < 3) {
    // Traced runs interleave traced and untraced operations, so the tracing
    // overhead is measured under the same conditions.
    log.BeginOp(op_id, args.trace && op_id % 2 == 0);
    ++op_id;
    ops.push_back(RunColdJoin(w, in, expected, &log));
  }
  samples.wall_s = Now() - wall0;
  samples.cpu_s = CpuSeconds() - cpu0;
  m.Set("peak_rss_mb", PeakRssMb());
  log.BeginOp(0, args.trace);
  RepeatSetUp(set_up, &setup_s);
  m.Set("setup_s", Median(setup_s));
  m.Set("datagen.generate_s", Median(setup_s));

  std::vector<double> plan, execute, refine;
  for (const BatchOp& op : ops) {
    ++out.attempted;
    if (!op.ok) {
      ++out.failed;
      continue;
    }
    samples.latency_s.push_back(op.latency_s);
    samples.ttfc_s.push_back(op.ttfc_s);
    (op.traced ? samples.traced_s : samples.untraced_s)
        .push_back(op.latency_s);
    plan.push_back(op.plan_s);
    execute.push_back(op.execute_s);
    refine.push_back(op.refine_s);
  }

  // Counts are deterministic per (workload, seed): the last operation's.
  const BatchOp& last = ops.back();
  m.Set(std::string(w.plan_layer) + ".plan_s", Median(plan));
  if (std::string(w.execute_layer) == "join") {
    m.Set("join.execute_s", Median(execute));
  } else {
    const swiftspatial::hw::AcceleratorReport& r = last.report;
    m.Set("hw.execute_s", Median(execute));
    m.Set("hw.device_model_ms", r.total_seconds * 1e3);
    m.Set("hw.kernel_cycles", static_cast<double>(r.kernel_cycles));
    m.Set("hw.pcie_bytes",
          static_cast<double>(r.bytes_to_device + r.bytes_from_device));
    m.Set("hw.dram_bytes",
          static_cast<double>(r.dram.bytes_read + r.dram.bytes_written));
    m.Set("hw.unit_utilization", r.AvgUnitUtilization());
    m.Set("hw.dram_utilization", r.dram_utilization);
  }
  const auto predicates = static_cast<double>(last.stats.predicate_evaluations);
  m.Set("join.predicates", predicates);
  m.Set("join.pairs", static_cast<double>(last.pairs));
  m.Set("join.precision", Ratio(static_cast<double>(last.pairs), predicates));
  m.Set("join.tasks", static_cast<double>(last.stats.tasks));
  m.Set("join.intermediate_pairs",
        static_cast<double>(last.stats.intermediate_pairs));
  m.Set("refine.s", Median(refine));
  m.Set("refine.candidates", static_cast<double>(last.refine.candidates));
  m.Set("refine.verified", static_cast<double>(last.refine.verified));
  m.Set("refine.precision",
        Ratio(static_cast<double>(last.refine.verified),
              static_cast<double>(last.refine.candidates)));
  FinishRun(args, samples, {log.spans()}, &out);
  return out;
}

// --------------------------------------------------------------------------
// serve-osm: a JoinService under closed-loop tenants with periodic writes.
// --------------------------------------------------------------------------

constexpr const char* kServeEngine = swiftspatial::kPartitionedEngine;

swiftspatial::exec::JoinServiceOptions ServiceOptions() {
  swiftspatial::exec::JoinServiceOptions options;
  options.worker_threads = kThreads;
  options.max_concurrent = 2;
  options.policy = swiftspatial::exec::SchedulingPolicy::kFcfs;
  return options;
}

struct Request {
  bool ok = false;
  bool traced = false;
  double latency_s = 0;
  double ttfc_s = 0;
  std::size_t chunks = 0;
  std::size_t max_queue_depth = 0;
};

/// Submit -> drain the stream chunk by chunk. The result must match the
/// reference of one of the two versions of R (a write may land between
/// submission and planning).
Request RunRequest(JoinService* service, const std::string& tenant,
                   const std::vector<Digest>& expected, SpanLog* log) {
  Request req;
  req.traced = log->enabled();
  Digest digest;
  swiftspatial::Status status;
  {
    ScopedSpan root(log, "request", "harness");
    const double t0 = Now();
    swiftspatial::Result<swiftspatial::exec::AsyncJoinHandle> handle =
        swiftspatial::Status::Internal("not submitted");
    {
      ScopedSpan span(log, "JoinService::SubmitNamed", "exec.service");
      handle = service->SubmitNamed(tenant, kServeEngine, "r", "s",
                                    ThreadedConfig());
    }
    if (!handle.ok()) {
      std::fprintf(stderr, "SubmitNamed: %s\n",
                   handle.status().ToString().c_str());
      return req;
    }
    swiftspatial::exec::ResultChunk chunk;
    for (;;) {
      bool more;
      {
        ScopedSpan span(log, "AsyncJoinHandle::Next", "exec.stream");
        more = handle->Next(&chunk);
      }
      if (!more) break;
      if (req.chunks++ == 0) req.ttfc_s = Now() - t0;
      digest.Add(chunk.pairs);
    }
    req.latency_s = Now() - t0;
    if (req.chunks == 0) req.ttfc_s = req.latency_s;
    {
      ScopedSpan span(log, "AsyncJoinHandle::Wait", "exec.stream");
      status = handle->Wait();
    }
    req.max_queue_depth = handle->max_queue_depth();
  }
  req.ok = status.ok() && (digest == expected[0] || digest == expected[1]);
  if (!req.ok) {
    std::fprintf(stderr, "request failed or differs from reference: %s\n",
                 status.ToString().c_str());
  }
  return req;
}

swiftspatial::exec::JoinServiceStats Snapshot(JoinService* service,
                                              SpanLog* log) {
  ScopedSpan span(log, "JoinService::Snapshot", "exec.service");
  return service->Snapshot();
}

/// Per-tenant client state; tenant 0 also performs the dataset writes.
struct Tenant {
  SpanLog log;
  std::vector<Request> requests;
  std::vector<double> register_s;
};

Outcome RunServe(const Args& args) {
  Outcome out;
  Metrics& m = out.metrics;

  std::vector<Digest> expected;
  if (!DigestsInChild(
          [&]() -> std::vector<Digest> {
            SpanLog none;
            const Inputs in = OsmServe(args.seed, &none);
            JoinResult v1, v2;
            if (!FilterPairs(swiftspatial::kParallelSyncTraversalEngine, in.r,
                             in.s, &v1) ||
                !FilterPairs(swiftspatial::kParallelSyncTraversalEngine, in.r2,
                             in.s, &v2)) {
              return {};
            }
            return {Digest::Of(v1.pairs()), Digest::Of(v2.pairs())};
          },
          &expected) ||
      expected.size() != 2) {
    std::fprintf(stderr, "reference computation failed\n");
    out.correct = false;
    return out;
  }

  // Set-up: generate, start the service, register, first (cold) plan.
  SpanLog setup_log;
  setup_log.BeginOp(0, args.trace);
  std::unique_ptr<JoinService> service;
  Inputs in;
  std::vector<double> setup_s, generate_s;
  const auto set_up = [&] {
    service.reset();
    const double t0 = Now();
    in = OsmServe(args.seed, &setup_log);
    generate_s.push_back(Now() - t0);
    service = std::make_unique<JoinService>(ServiceOptions());
    {
      ScopedSpan span(&setup_log, "JoinService::RegisterDataset",
                      "exec.registry");
      service->RegisterDataset("r", in.r);
      service->RegisterDataset("s", in.s);
    }
    out.correct &= RunRequest(service.get(), "setup", expected, &setup_log).ok;
    return Now() - t0;
  };
  RepeatSetUp(set_up, &setup_s);
  const Dataset* versions[2] = {&in.r, &in.r2};

  SpanLog warmup_log;
  out.correct &= RunRequest(service.get(), "warmup", expected, &warmup_log).ok;

  std::vector<Tenant> tenants(kThreads);
  std::atomic<uint64_t> next_op{1};
  std::atomic<uint64_t> submitted{0};
  const auto before = Snapshot(service.get(), &setup_log);
  Samples samples;
  const double cpu0 = CpuSeconds();
  const double wall0 = Now();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Tenant& me = tenants[t];
      const std::string name = "tenant-" + std::to_string(t);
      uint64_t writes = 0;
      while (Now() - wall0 < args.seconds) {
        if (t == 0 && submitted.load() / kRequestsPerWrite > writes) {
          // Alternate R between its two versions; the copy is made outside
          // the timed call. Each write invalidates the cached plans.
          ++writes;
          Dataset next = *versions[writes % 2];
          const uint64_t op = next_op.fetch_add(1);
          me.log.BeginOp(op, args.trace && op % 2 == 0);
          ScopedSpan span(&me.log, "JoinService::RegisterDataset",
                          "exec.registry");
          const double w0 = Now();
          service->RegisterDataset("r", std::move(next));
          me.register_s.push_back(Now() - w0);
        }
        const uint64_t op = next_op.fetch_add(1);
        me.log.BeginOp(op, args.trace && op % 2 == 0);
        submitted.fetch_add(1);
        me.requests.push_back(
            RunRequest(service.get(), name, expected, &me.log));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  samples.wall_s = Now() - wall0;
  samples.cpu_s = CpuSeconds() - cpu0;
  const auto after = Snapshot(service.get(), &setup_log);
  m.Set("peak_rss_mb", PeakRssMb());
  RepeatSetUp(set_up, &setup_s);
  m.Set("setup_s", Median(setup_s));
  m.Set("datagen.generate_s", Median(generate_s));

  std::vector<double> ttfc_share, register_s;
  double chunks = 0;
  std::size_t max_depth = 0;
  std::vector<std::vector<Span>> logs;
  for (const Tenant& tenant : tenants) {
    for (const Request& r : tenant.requests) {
      ++out.attempted;
      if (!r.ok) {
        ++out.failed;
        continue;
      }
      samples.latency_s.push_back(r.latency_s);
      samples.ttfc_s.push_back(r.ttfc_s);
      (r.traced ? samples.traced_s : samples.untraced_s)
          .push_back(r.latency_s);
      ttfc_share.push_back(Ratio(r.ttfc_s, r.latency_s));
      chunks += static_cast<double>(r.chunks);
      max_depth = std::max(max_depth, r.max_queue_depth);
    }
    register_s.insert(register_s.end(), tenant.register_s.begin(),
                      tenant.register_s.end());
    logs.push_back(tenant.log.spans());
  }
  logs.push_back(setup_log.spans());

  const double completed =
      static_cast<double>(after.completed - before.completed);
  const double hits =
      static_cast<double>(after.plan_cache.hits - before.plan_cache.hits);
  const double misses =
      static_cast<double>(after.plan_cache.misses - before.plan_cache.misses);
  m.Set("exec.service.requests", completed);
  m.Set("exec.service.queue_wait_s",
        Ratio(after.resources.queue_wait_seconds -
                  before.resources.queue_wait_seconds,
              completed));
  m.Set("exec.service.rejected",
        static_cast<double>(after.rejected - before.rejected));
  m.Set("exec.service.cpu_per_req_s",
        Ratio(after.resources.cpu_seconds - before.resources.cpu_seconds,
              completed));
  m.Set("exec.registry.hits", hits);
  m.Set("exec.registry.misses", misses);
  m.Set("exec.registry.hit_ratio", Ratio(hits, hits + misses));
  m.Set("exec.registry.writes", static_cast<double>(register_s.size()));
  m.Set("exec.registry.register_s", Median(register_s));
  m.Set("exec.stream.chunks_per_req",
        Ratio(chunks, static_cast<double>(samples.latency_s.size())));
  m.Set("exec.stream.ttfc_share", Median(ttfc_share));
  m.Set("exec.stream.max_queue_depth", static_cast<double>(max_depth));
  m.Set("exec.task_graph.tasks_per_req",
        Ratio(static_cast<double>(after.resources.tasks -
                                  before.resources.tasks),
              completed));
  FinishRun(args, samples, logs, &out);
  return out;
}

bool OptimisedBuild() {
  const std::string type = SWIFTBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return type == "Release" || type == "RelWithDebInfo";
#else
  return false;
#endif
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: swiftbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--git-sha SHA] "
                 "[--source-digest HEX]\n");
    return 2;
  }
  if (!OptimisedBuild()) {
    std::fprintf(stderr, "refusing to run: build type %s is not optimised\n",
                 SWIFTBENCH_BUILD_TYPE);
    return 3;
  }
  const std::vector<BatchWorkload> batch = BatchWorkloads();
  const BatchWorkload* workload = nullptr;
  for (const BatchWorkload& w : batch) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr && args.workload != "serve-osm") {
    std::fprintf(stderr,
                 "unknown workload %s (uniform-pbsm, osm-rtree, serve-osm, "
                 "osm-accel)\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("# nproc=%u loadavg_start=%s build=%s filter=%s git=%s "
              "source=%s\n",
              std::thread::hardware_concurrency(), LoadAverage().c_str(),
              SWIFTBENCH_BUILD_TYPE, swiftspatial::SimdFilterBackend(),
              args.git_sha.c_str(), args.source_digest.c_str());

  Outcome out = workload ? RunBatch(*workload, args) : RunServe(args);
  out.correct &= out.failed == 0 && out.attempted > 0;
  std::printf("# loadavg_end=%s\n", LoadAverage().c_str());
  if (args.trace) {
    out.metrics.Print(kPerLayer, out.correct, out.attempted, out.failed);
  } else {
    out.metrics.Print(kEndToEnd, out.correct, out.attempted, out.failed);
  }
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

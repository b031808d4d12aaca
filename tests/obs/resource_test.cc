// Per-request resource accounting: accumulator arithmetic under concurrent
// writers, the thread-CPU clock, and the end-to-end property the layer
// exists for -- a multi-threaded TaskGraph fan-out reports MORE cpu_seconds
// than wall time (work really ran in parallel) while a single-threaded run
// reports roughly wall time.
#include "obs/resource.h"

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/time.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "exec/task_graph.h"

namespace swiftspatial::obs {
namespace {

// Busy work that the optimizer cannot elide and that burns thread CPU (no
// sleeping -- sleeps accrue wall time but not CLOCK_THREAD_CPUTIME_ID).
uint64_t BurnCpu(double seconds) {
  const double start = ThreadCpuSeconds();
  volatile uint64_t acc = 1;
  while (ThreadCpuSeconds() - start < seconds) {
    for (int i = 0; i < 1000; ++i) acc = acc * 2862933555777941757ULL + 3037ULL;
  }
  return acc;
}

TEST(ResourceTest, AccumulatorSumsAllFields) {
  ResourceAccumulator acc;
  acc.AddCpuSeconds(0.5);
  acc.AddCpuSeconds(0.25);
  acc.AddQueueWaitSeconds(0.125);
  acc.SetWallSeconds(2.0);
  acc.AddTasks(3);
  acc.AddChunk(/*pairs=*/10, /*bytes=*/80);
  acc.AddChunk(/*pairs=*/5, /*bytes=*/40);
  acc.AddRetries(2);

  const ResourceUsage u = acc.Snapshot();
#ifdef SWIFTSPATIAL_OBS_OFF
  // Compiled out: every mutator is an empty body.
  EXPECT_EQ(u.cpu_seconds, 0.0);
  EXPECT_EQ(u.tasks, 0u);
  EXPECT_EQ(u.pairs, 0u);
#else
  EXPECT_DOUBLE_EQ(u.cpu_seconds, 0.75);
  EXPECT_DOUBLE_EQ(u.queue_wait_seconds, 0.125);
  EXPECT_DOUBLE_EQ(u.wall_seconds, 2.0);
  EXPECT_EQ(u.tasks, 3u);
  EXPECT_EQ(u.chunks, 2u);
  EXPECT_EQ(u.pairs, 15u);
  EXPECT_EQ(u.bytes, 120u);
  EXPECT_EQ(u.retries, 2u);
#endif
}

#ifndef SWIFTSPATIAL_OBS_OFF

TEST(ResourceTest, ConcurrentAddsLoseNothing) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  ResourceAccumulator acc;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&acc] {
      for (int i = 0; i < kPerThread; ++i) {
        acc.AddCpuSeconds(0.001);
        acc.AddTasks(1);
        acc.AddChunk(2, 16);
      }
    });
  }
  for (auto& t : threads) t.join();
  const ResourceUsage u = acc.Snapshot();
  EXPECT_EQ(u.tasks, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(u.chunks, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(u.pairs, 2u * kThreads * kPerThread);
  EXPECT_EQ(u.bytes, 16u * kThreads * kPerThread);
  // The CAS loop on the double must not lose increments either.
  EXPECT_NEAR(u.cpu_seconds, 0.001 * kThreads * kPerThread, 1e-6);
}

TEST(ResourceTest, ThreadCpuClockAdvancesWithWorkNotSleep) {
  const double before = ThreadCpuSeconds();
  BurnCpu(0.02);
  const double after_work = ThreadCpuSeconds();
  EXPECT_GE(after_work - before, 0.02);

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double after_sleep = ThreadCpuSeconds();
  // Sleeping burns (almost) no thread CPU.
  EXPECT_LT(after_sleep - after_work, 0.02);
}

// Process CPU (all threads, user + system) from getrusage.
double ProcessCpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

// The headline property: fan the same total work out over 4 workers and
// the accumulator's cpu_seconds exceeds wall time, because the CPU cost
// was paid on several cores at once. This is what distinguishes "the
// request was expensive" from "the request waited around".
TEST(ResourceTest, TaskGraphFanOutReportsCpuAboveWall) {
  constexpr int kTasks = 8;
  constexpr double kBurnPerTask = 0.05;
  ThreadPool pool(4);
  ResourceAccumulator acc;
  // Each task's own thread-CPU delta, measured inside its body.
  std::vector<double> task_cpu(kTasks, 0.0);
  const double process_cpu0 = ProcessCpuSeconds();
  Stopwatch wall;
  {
    exec::TaskGraph graph(&pool, {}, {}, &acc);
    for (int i = 0; i < kTasks; ++i) {
      graph.Add([&task_cpu, i] {
        const double cpu0 = ThreadCpuSeconds();
        BurnCpu(kBurnPerTask);
        // A sleep accrues wall time but no thread CPU, so accounting that
        // summed task wall time instead of CPU would miss the exact check
        // below by kTasks * 10 ms.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        task_cpu[i] = ThreadCpuSeconds() - cpu0;
      });
    }
    graph.Wait();
  }
  const double wall_seconds = wall.ElapsedSeconds();
  const double process_cpu = ProcessCpuSeconds() - process_cpu0;
  const ResourceUsage u = acc.Snapshot();

  EXPECT_EQ(u.tasks, static_cast<uint64_t>(kTasks));
  EXPECT_GE(u.queue_wait_seconds, 0.0);
  // All 8 bursts are accounted, whichever worker ran them, and nothing
  // else is: the accumulator holds exactly the tasks' own CPU.
  EXPECT_GE(u.cpu_seconds, kTasks * kBurnPerTask);
  double task_cpu_sum = 0;
  for (const double c : task_cpu) task_cpu_sum += c;
  EXPECT_NEAR(u.cpu_seconds, task_cpu_sum, 0.005);
  // 8 tasks on 4 workers: CPU cost exceeds elapsed wall time -- but only
  // when the host really ran the workers in parallel, which a shared or
  // single-core host does not guarantee. The process's own CPU over the
  // interval says whether it did; only then must the accounting show it.
  if (process_cpu >= 1.5 * wall_seconds) {
    EXPECT_GT(u.cpu_seconds, wall_seconds * 1.5)
        << "cpu=" << u.cpu_seconds << " wall=" << wall_seconds
        << " process_cpu=" << process_cpu;
  }
}

TEST(ResourceTest, SingleThreadedGraphReportsCpuNearWall) {
  constexpr int kTasks = 4;
  constexpr double kBurnPerTask = 0.03;
  ThreadPool pool(1);
  ResourceAccumulator acc;
  Stopwatch wall;
  {
    exec::TaskGraph graph(&pool, {}, {}, &acc);
    for (int i = 0; i < kTasks; ++i) {
      graph.Add([] { BurnCpu(kBurnPerTask); });
    }
    graph.Wait();
  }
  const double wall_seconds = wall.ElapsedSeconds();
  const ResourceUsage u = acc.Snapshot();

  EXPECT_EQ(u.tasks, static_cast<uint64_t>(kTasks));
  EXPECT_GE(u.cpu_seconds, kTasks * kBurnPerTask);
  // One worker: CPU time cannot meaningfully exceed elapsed wall time.
  EXPECT_LE(u.cpu_seconds, wall_seconds * 1.25)
      << "cpu=" << u.cpu_seconds << " wall=" << wall_seconds;
}

TEST(ResourceTest, UntrackedGraphPaysNothing) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  exec::TaskGraph graph(&pool);  // no accumulator
  for (int i = 0; i < 4; ++i) {
    graph.Add([&ran] { ran.fetch_add(1); });
  }
  graph.Wait();
  EXPECT_EQ(ran.load(), 4);
}

#endif  // SWIFTSPATIAL_OBS_OFF

}  // namespace
}  // namespace swiftspatial::obs

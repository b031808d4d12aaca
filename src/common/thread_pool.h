// Fixed-size worker pool plus parallel-for helpers with the two OpenMP-style
// scheduling policies the paper evaluates for its multi-threaded CPU
// baselines (§5.1): static (equal contiguous chunks per thread) and dynamic
// (work-stealing from a shared atomic counter).
#ifndef SWIFTSPATIAL_COMMON_THREAD_POOL_H_
#define SWIFTSPATIAL_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace swiftspatial {

/// Task scheduling policy for ParallelFor, mirroring OpenMP's
/// schedule(static) and schedule(dynamic).
enum class Schedule {
  kStatic,
  kDynamic,
};

const char* ScheduleToString(Schedule s);

/// A fixed-size thread pool executing void() tasks.
///
/// The pool is started at construction and joined at destruction. Submit()
/// enqueues a task; Wait() blocks until all submitted tasks have completed.
///
/// Concurrency contract (relied on by exec::TaskGraph):
///  - Submit() is thread-safe and may be called from worker threads, i.e.
///    from inside a running task. A task submitted by a running task is
///    always covered by any Wait() that covers the submitting task: the
///    child is counted as outstanding before its parent retires, so the
///    outstanding count cannot touch zero between the two.
///  - Wait() may be called concurrently with Submit() and from several
///    threads at once. It returns at an instant when the outstanding count
///    (queued + running tasks) is zero. Tasks submitted by *other external
///    threads* while Wait() blocks may or may not be covered; callers that
///    need a submission covered must order it before Wait() themselves
///    (or submit it from inside a covered task, per the previous rule).
///  - Wait() must not be called from a worker thread: the calling task is
///    itself outstanding, so the wait could never finish. This is a checked
///    programmer error (SWIFT_CHECK).
class ThreadPool {
 public:
  /// Sentinel returned by CurrentWorkerIndex() off the pool's threads.
  static constexpr std::size_t kNotAWorker = static_cast<std::size_t>(-1);

  /// Creates a pool with `num_threads` workers (>= 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Blocks until every previously submitted task has finished (see the
  /// class comment for the exact contract). Must not be called from one of
  /// this pool's own workers.
  void Wait() EXCLUDES(mu_);

  std::size_t num_threads() const { return workers_.size(); }

  /// Index of the calling thread within this pool (0..num_threads-1), or
  /// kNotAWorker when the caller is not one of this pool's workers. Lets
  /// task code keep per-worker accumulators without sharing or locking.
  std::size_t CurrentWorkerIndex() const;

 private:
  void WorkerLoop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_task_;
  CondVar cv_done_;
  std::queue<std::function<void()>> queue_ GUARDED_BY(mu_);
  std::size_t outstanding_ GUARDED_BY(mu_) = 0;  // queued + running tasks
  bool stop_ GUARDED_BY(mu_) = false;
};

/// Runs `body(i)` for every i in [0, n) on `num_threads` threads.
///
/// With Schedule::kStatic each thread receives one contiguous range of
/// indices; with Schedule::kDynamic threads repeatedly claim chunks of
/// `chunk` indices from a shared counter until the range is exhausted.
/// The call blocks until all iterations are complete. `num_threads == 1`
/// executes inline without spawning threads.
void ParallelFor(std::size_t n, std::size_t num_threads, Schedule schedule,
                 const std::function<void(std::size_t)>& body,
                 std::size_t chunk = 1);

/// Variant that also tells the body which worker (0..num_threads-1) runs it,
/// so callers can maintain per-thread accumulators without sharing.
void ParallelForWorker(
    std::size_t n, std::size_t num_threads, Schedule schedule,
    const std::function<void(std::size_t index, std::size_t worker)>& body,
    std::size_t chunk = 1);

/// Runs `body(worker, begin, end)` once for each worker 0..num_workers-1,
/// each on its own thread, over contiguous, near-equal ranges that cover
/// [0, n) in worker order. `num_workers == 1` executes inline.
template <typename Body>
void ParallelForRanges(std::size_t n, std::size_t num_workers,
                       const Body& body) {
  ParallelFor(num_workers, num_workers, Schedule::kStatic,
              [&](std::size_t w) {
                body(w, n * w / num_workers, n * (w + 1) / num_workers);
              });
}

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_COMMON_THREAD_POOL_H_

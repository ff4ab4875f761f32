// Fixed-size worker thread pool and the ParallelFor helper that the
// experiment engine, the sharded aggregation path, and the figure
// benches schedule work on.
//
// Public contract (see also docs/architecture.md):
//
//  - The pool is a plain task queue: Submit() enqueues a closure,
//    Wait() blocks until every submitted closure has finished.  The
//    destructor drains the queue before joining, so a pool can be
//    used fire-and-forget.
//
//  - ParallelFor(threads, n, fn) runs fn(0) ... fn(n-1) with dynamic
//    (work-stealing counter) scheduling.  Callers own determinism:
//    every index must write only its own output slot, and any
//    randomness must be derived from the index (see DeriveSeed in
//    util/random.h), never from execution order.  Under that
//    contract results are bit-identical at any thread count,
//    including the serial threads <= 1 fast path.
//
//  - The first exception thrown by any index is captured and
//    rethrown on the calling thread after all workers finish.
//
//  - The free ParallelFor reuses one process-wide lazily-created
//    pool (GlobalThreadPool()) instead of spawning a transient pool
//    per call, so many small parallel loops pay thread-spawn cost
//    once.  Calls *nested inside* a pool task — e.g. shard-level
//    aggregation inside a trial-level fan-out — never re-enter the
//    caller's pool (that would deadlock: the task would Wait() on a
//    queue it occupies); they run on a small transient pool instead,
//    budgeted by the caller (see RunExperiments' split of the thread
//    budget between trials and shards).
//
// Thread count resolution: an explicit count wins; 0 means "auto",
// which honors the LDPR_THREADS environment variable and falls back
// to std::thread::hardware_concurrency().

#ifndef LDPR_UTIL_THREAD_POOL_H_
#define LDPR_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/status.h"

namespace ldpr {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains the queue, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues one task.  Tasks must not throw — an exception escapes
  /// the worker thread and terminates the process; use ParallelFor
  /// for exception propagation.  Tasks must not Submit() to the same
  /// pool and then Wait() on it from inside a task (deadlock).
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished.  Must not
  /// be called from inside one of this pool's own tasks — in_flight_
  /// would include the caller and never drain (enforced by a check);
  /// waiting on a *different* pool from a task is fine.
  void Wait();

  /// Runs fn(begin) ... fn(end-1) across the pool's workers and
  /// blocks until all indices are done.  Rethrows the first
  /// exception any index threw.  `max_runners` caps how many workers
  /// participate (0 = all of them) so a shared pool can serve a
  /// caller that asked for fewer threads than the pool holds.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn,
                   size_t max_runners = 0);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable task_cv_;  // signals workers: task or stop
  std::condition_variable idle_cv_;  // signals Wait(): all drained
  size_t in_flight_ = 0;             // queued + currently running
  bool stop_ = false;
};

/// LDPR_THREADS if set (clamped to >= 1), else hardware concurrency,
/// else 1; InvalidArgument naming LDPR_THREADS when it is set but is
/// not an integer.  Entry points call this to reject such a value.
StatusOr<size_t> ThreadCountFromEnv();

/// ThreadCountFromEnv(), or 1 when LDPR_THREADS does not parse.  This
/// is the pool size every "0 = auto" caller gets.
size_t DefaultThreadCount();

/// The process-wide pool the free ParallelFor schedules on, created
/// lazily with DefaultThreadCount() workers on first use (so
/// LDPR_THREADS is read once, at first parallel work).  Thread-safe;
/// the workers idle between parallel regions and join at process
/// exit.
ThreadPool& GlobalThreadPool();

/// True iff the calling thread is a ThreadPool worker (any pool).
/// ParallelFor uses this to detect nested parallelism.
bool InThreadPoolWorker();

/// Two-level split of one worker-thread budget: `outer` workers fan
/// an n-item grid out and every item gets `inner` workers for its
/// own nested parallelism, with outer * inner <= the budget — the
/// policy RunExperiments applies to ((config, trial) units x
/// aggregation shards) and the bench grids apply to ((cell, trial)
/// units x shards).  `num_threads` 0 means auto
/// (DefaultThreadCount()).  Splitting never affects results, only
/// which level the cores serve.
struct ThreadBudget {
  size_t outer;
  size_t inner;
};
ThreadBudget SplitThreadBudget(size_t num_threads, size_t n);

/// Parallel loop: runs fn(0) ... fn(n-1) on `num_threads` workers
/// (0 = DefaultThreadCount()).  Runs inline without touching any
/// pool when num_threads <= 1 or n <= 1; otherwise schedules on
/// GlobalThreadPool() — or, when called from inside a pool task
/// (nested parallelism) or when more than DefaultThreadCount()
/// workers are requested, on a transient pool of its own.  Blocks
/// until done and rethrows the first exception.
void ParallelFor(size_t num_threads, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace ldpr

#endif  // LDPR_UTIL_THREAD_POOL_H_

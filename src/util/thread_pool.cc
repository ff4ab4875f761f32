#include "util/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <utility>

#include "util/flags.h"
#include "util/logging.h"

namespace ldpr {

namespace {
// The pool whose WorkerLoop owns this thread (null on non-worker
// threads).  Lets the free ParallelFor recognize nested calls (which
// must not re-enter the pool they run on — see the header) and lets
// Wait() trap same-pool re-entry, the one call shape that deadlocks.
thread_local const ThreadPool* t_worker_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    LDPR_CHECK(!stop_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  task_cv_.notify_one();
}

void ThreadPool::Wait() {
  // Waiting on the pool from inside one of its own tasks deadlocks:
  // in_flight_ includes the calling task, so it can never reach 0.
  LDPR_CHECK(t_worker_pool != this);
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  t_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn,
                             size_t max_runners) {
  if (begin >= end) return;
  const size_t n = end - begin;

  // Dynamic scheduling: each runner task pulls the next index off a
  // shared counter, so uneven per-index cost balances automatically.
  // Wait() below guarantees every runner finishes before this frame
  // unwinds, so the shared state lives on the stack.
  std::atomic<size_t> next{begin};
  std::exception_ptr error;
  std::mutex error_mu;

  size_t runners = n < num_threads() ? n : num_threads();
  if (max_runners != 0 && max_runners < runners) runners = max_runners;
  for (size_t r = 0; r < runners; ++r) {
    Submit([&next, &error, &error_mu, end, &fn] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= end) return;
        try {
          fn(i);
        } catch (...) {
          std::unique_lock<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
        }
      }
    });
  }
  Wait();
  if (error) std::rethrow_exception(error);
}

StatusOr<size_t> ThreadCountFromEnv() {
  const char* env = std::getenv("LDPR_THREADS");
  if (env != nullptr) {
    const auto v = ParseInteger("LDPR_THREADS", env);
    if (!v.ok()) return v.status();
    return *v < 1 ? size_t{1} : static_cast<size_t>(*v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw < 1 ? size_t{1} : static_cast<size_t>(hw);
}

size_t DefaultThreadCount() { return ThreadCountFromEnv().value_or(1); }

ThreadBudget SplitThreadBudget(size_t num_threads, size_t n) {
  if (num_threads == 0) num_threads = DefaultThreadCount();
  ThreadBudget budget;
  budget.outer = n < 1 ? 1 : (num_threads < n ? num_threads : n);
  budget.inner = num_threads / budget.outer;
  if (budget.inner < 1) budget.inner = 1;
  return budget;
}

ThreadPool& GlobalThreadPool() {
  static ThreadPool pool(DefaultThreadCount());
  return pool;
}

bool InThreadPoolWorker() { return t_worker_pool != nullptr; }

void ParallelFor(size_t num_threads, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (num_threads == 0) num_threads = DefaultThreadCount();
  if (num_threads <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (!InThreadPoolWorker()) {
    ThreadPool& pool = GlobalThreadPool();
    // The shared pool serves any request it can cover; oversized
    // requests (more workers than LDPR_THREADS / the hardware has)
    // keep the old transient-pool semantics below.
    if (num_threads <= pool.num_threads()) {
      pool.ParallelFor(0, n, fn, /*max_runners=*/num_threads);
      return;
    }
  }
  // Nested inside a pool task, or wider than the global pool: a
  // transient pool sized by the caller's (budgeted) request.
  ThreadPool pool(num_threads < n ? num_threads : n);
  pool.ParallelFor(0, n, fn);
}

}  // namespace ldpr

// Work-stealing thread pool shared by every parallel layer of the flow
// (core/flow job graph, sim/montecarlo sampling, tools/check_hazard batch).
//
// Each worker owns a deque: it pops its own work LIFO (cache-warm, keeps
// nested task graphs depth-first) and steals FIFO from the other workers
// (oldest, largest-granularity work first). Threads that *wait* on a
// TaskGroup help execute queued tasks instead of blocking, so nested
// parallelism — a batch job that itself fans out per-gate jobs on the same
// pool — cannot deadlock even on a single-worker pool.
//
// Determinism contract: the pool schedules, it never reorders results.
// Callers that need reproducible output must make each task a pure function
// of its index (parallel_for hands every index to exactly one task) and
// merge task outputs in index order — see core::derive_timing_constraints.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sitime::base {

class ThreadPool {
 public:
  /// Spawns `threads` workers; `threads <= 0` picks hardware_concurrency().
  explicit ThreadPool(int threads = 0);

  /// Joins the workers. Outstanding tasks that no TaskGroup waits on are
  /// dropped; every blocking API of this class (TaskGroup::wait,
  /// parallel_for) drains its own tasks before returning, so in practice
  /// destruction only ever sees empty queues.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int worker_count() const { return static_cast<int>(workers_.size()); }

  /// Process-wide pool with hardware_concurrency() workers, created on
  /// first use. All flow/simulation layers default to it so one process
  /// never oversubscribes the machine, however many designs it pipelines.
  static ThreadPool& shared();

  /// Enqueues one task. Called from a worker of this pool the task goes to
  /// that worker's own deque (depth-first nesting); otherwise deques are
  /// picked round-robin. The task must not throw: tasks run unprotected on
  /// worker threads (and inside noexcept waits), so an escaping exception
  /// terminates the process. TaskGroup::run wraps its tasks in a
  /// try/catch and rethrows from wait() — submit through it when the task
  /// body can fail.
  void submit(std::function<void()> task);

  /// Runs one queued task on the calling thread, if any is available.
  /// Same no-throw contract as submit().
  bool try_run_one();

  /// True while the calling thread is executing a pool task (a worker's
  /// task or one picked up through try_run_one / a help-while-wait loop,
  /// for any pool). Long blocking waits are unsafe in that context: the
  /// frames beneath the task may be the very work the wait depends on —
  /// which is why svc::AnalysisService::analyze() refuses such callers.
  static bool in_task();

  /// Utilization counters for the observability layer (all relaxed
  /// atomics — approximate mid-traffic, exact at quiescence).
  /// Tasks that ran to completion on any thread of/through this pool.
  long long tasks_executed() const {
    return executed_.load(std::memory_order_relaxed);
  }
  /// Tasks taken from a deque the running thread does not own — worker
  /// steals plus every task picked up by an external help-while-wait
  /// thread (which owns no deque).
  long long tasks_stolen() const {
    return stolen_.load(std::memory_order_relaxed);
  }
  /// Threads currently inside a task body of this pool (workers and
  /// helpers alike) — the pool-utilization gauge.
  int active_workers() const {
    return active_.load(std::memory_order_relaxed);
  }

  /// Calls fn(i) exactly once for every i in [begin, end), distributing
  /// chunks of `grain` indices over the workers *and* the calling thread,
  /// and blocks until all of them finished. `max_tasks > 0` bounds the
  /// number of parallel task bodies (an upper bound on concurrency, used to
  /// honour user-facing --jobs/threads knobs). The first exception thrown
  /// by fn is rethrown after every body stopped.
  void parallel_for(int begin, int end, const std::function<void(int)>& fn,
                    int grain = 1, int max_tasks = 0);

 private:
  friend class TaskGroup;

  struct WorkQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  bool pop_task(std::function<void()>& out);
  void worker_loop(int index);
  void notify_one();

  std::vector<std::unique_ptr<WorkQueue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<long long> executed_{0};
  std::atomic<long long> stolen_{0};
  std::atomic<int> active_{0};
  std::mutex sleep_mutex_;
  std::condition_variable wake_;
  std::atomic<int> pending_{0};
  std::atomic<unsigned> next_queue_{0};
  std::atomic<bool> stop_{false};
};

/// A set of tasks submitted to one pool and awaited together (the classic
/// fork-join region). wait() helps run queued tasks while the group is
/// unfinished and rethrows the first exception any task threw.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool = ThreadPool::shared());

  /// Waits for every task without throwing (errors are dropped); prefer an
  /// explicit wait() so exceptions propagate.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void run(std::function<void()> task);
  void wait();

 private:
  void wait_impl() noexcept;

  ThreadPool& pool_;
  std::atomic<int> pending_{0};
  std::mutex mutex_;
  std::condition_variable done_;
  std::exception_ptr error_;
};

}  // namespace sitime::base
